#include "platform/surrogate_server.hpp"

#include <algorithm>
#include <string>

namespace aide::platform {

namespace {

// Session node ids start above the single-platform pair (client 1,
// surrogate 2). NodeId feeds the top 16 bits of every ObjectId the VM mints
// ((node << 48) | counter), so distinct nodes give every session a disjoint
// object-id space on top of the refmap handle namespaces.
constexpr std::uint32_t kNodeBase = 16;

NodeId client_node(SessionId id) noexcept {
  return NodeId{kNodeBase + 2 * id.value()};
}
NodeId surrogate_node(SessionId id) noexcept {
  return NodeId{kNodeBase + 2 * id.value() + 1};
}

}  // namespace

Session::Session(SessionId id,
                 std::shared_ptr<const vm::ClassRegistry> registry,
                 const ServerConfig& cfg, SimClock& clock,
                 const analysis::BatchSafety* oracle)
    : id_(id), budget_(cfg.budget), link_(cfg.link) {
  vm::VmConfig ccfg;
  ccfg.node = client_node(id);
  ccfg.name = "client#" + std::to_string(id.value());
  ccfg.is_client = true;
  ccfg.cpu_speed = 1.0;
  ccfg.heap_capacity = cfg.client_heap;
  client_ = std::make_unique<vm::Vm>(ccfg, registry, clock);

  vm::VmConfig scfg;
  scfg.node = surrogate_node(id);
  scfg.name = "surrogate#" + std::to_string(id.value());
  scfg.is_client = false;
  scfg.cpu_speed = cfg.surrogate_speedup;
  scfg.heap_capacity = cfg.session_heap;
  surrogate_ = std::make_unique<vm::Vm>(scfg, std::move(registry), clock);

  client_ep_ = std::make_unique<rpc::Endpoint>(*client_, link_);
  surrogate_ep_ = std::make_unique<rpc::Endpoint>(*surrogate_, link_);
  // Session-unique handle namespaces must be in place before the first
  // export, i.e. before any traffic.
  client_ep_->set_session(id);
  surrogate_ep_->set_session(id);
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);

  client_ep_->set_retry_policy(cfg.retry);
  surrogate_ep_->set_retry_policy(cfg.retry);
  client_ep_->set_batch_policy(cfg.batching);
  surrogate_ep_->set_batch_policy(cfg.batching);
  if (oracle != nullptr) {
    // The oracle is immutable and derived from the shared registry: one
    // instance serves every session's endpoints.
    client_ep_->set_batch_safety(oracle);
    surrogate_ep_->set_batch_safety(oracle);
  }
}

bool Session::offload(std::span<const ObjectId> ids) {
  // Price the batch before anything moves so a refusal has no side effects.
  std::uint64_t batch_bytes = 0;
  for (const ObjectId id : ids) {
    if (const vm::Object* o = client_->find_object(id); o != nullptr) {
      batch_bytes += static_cast<std::uint64_t>(o->size_bytes());
    }
  }
  if (budget_.max_offloaded_bytes != 0 &&
      offloaded_bytes_ + batch_bytes > budget_.max_offloaded_bytes) {
    budget_refusals_ += 1;
    return false;
  }
  client_ep_->migrate_objects(ids);
  offloaded_bytes_ += batch_bytes;
  return true;
}

SurrogateServer::SurrogateServer(
    std::shared_ptr<const vm::ClassRegistry> registry, ServerConfig config,
    SimClock& shared_clock)
    : SurrogateServer(std::move(registry), config) {
  clock_ = &shared_clock;
}

SurrogateServer::SurrogateServer(
    std::shared_ptr<const vm::ClassRegistry> registry, ServerConfig config)
    : config_(config),
      registry_(std::move(registry)),
      // The startup gates run once, against the one registry every session
      // shares; admitting a session never re-analyzes anything.
      gates_(analysis::run_startup_gates(*registry_, config_.static_analysis,
                                         config_.effect_verify)) {
  slots_.reserve(config_.max_sessions);
  order_.reserve(config_.max_sessions);
}

Session* SurrogateServer::open_session() {
  return open_session(SessionId{next_session_});
}

Session* SurrogateServer::open_session(SessionId id) {
  if (live_ >= config_.max_sessions) {
    stats_.admission_rejections += 1;
    return nullptr;
  }
  // Externally minted ids (pool admission) must not reuse or reorder: the
  // round-robin invariant is that `order_` stays ascending by session id.
  if (id.value() < next_session_) return nullptr;
  // Reuse the lowest closed slot; grow the table otherwise.
  std::size_t slot = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == nullptr) {
      slot = i;
      break;
    }
  }
  if (slot == slots_.size()) slots_.emplace_back();

  next_session_ = id.value() + 1;
  slots_[slot] = std::make_unique<Session>(id, registry_, config_, *clock_,
                                           gates_.oracle());
  order_.push_back(slot);
  live_ += 1;
  stats_.sessions_opened += 1;
  return slots_[slot].get();
}

ServerStats SurrogateServer::stats() const {
  ServerStats s = stats_;
  s.live_sessions = live_;
  for (const std::size_t slot : order_) {
    s.offloaded_bytes += slots_[slot]->offloaded_bytes();
    s.budget_refusals += slots_[slot]->budget_refusals();
    s.throttles += slots_[slot]->throttles();
  }
  return s;
}

Session* SurrogateServer::find_session(SessionId id) noexcept {
  for (const std::size_t slot : order_) {
    if (slots_[slot]->id() == id) return slots_[slot].get();
  }
  return nullptr;
}

void SurrogateServer::do_close(std::size_t slot) {
  slots_[slot]->client_endpoint().disconnect();
  slots_[slot].reset();
  live_ -= 1;
  stats_.sessions_closed += 1;
}

void SurrogateServer::close_session(SessionId id) {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::size_t slot = order_[i];
    if (slots_[slot]->id() == id) {
      do_close(slot);
      order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::size_t SurrogateServer::run_rounds(std::size_t max_rounds,
                                        const TurnFn& turn) {
  std::size_t rounds = 0;
  while (rounds < max_rounds && live_ > 0) {
    rounds += 1;
    stats_.rounds += 1;
    bool any_finished = false;
    // Visit order is `order_` — ascending session id. Sessions the turn
    // function admits mid-round join from the next round (the round length
    // is pinned here); finished sessions close at the round boundary below,
    // so one round's visit order is never perturbed in flight.
    const std::size_t round_len = order_.size();
    for (std::size_t i = 0; i < round_len; ++i) {
      Session& s = *slots_[order_[i]];
      if (s.finished_) continue;
      s.begin_turn();
      stats_.turns += 1;
      const SimTime t0 = clock_->now();
      const TurnOutcome out = turn(s);
      s.service_time_ += clock_->now() - t0;
      if (out == TurnOutcome::finished) {
        s.finished_ = true;
        any_finished = true;
      }
    }
    if (any_finished) {
      for (std::size_t i = 0; i < order_.size();) {
        const std::size_t slot = order_[i];
        if (slots_[slot]->finished_) {
          do_close(slot);
          order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }
  }
  return rounds;
}

double SurrogateServer::mean_session_srtt() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const std::size_t slot : order_) {
    const rpc::RttEstimator& est =
        slots_[slot]->client_ep_->rtt_estimator();
    if (est.primed) {
      sum += est.srtt;
      n += 1;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

rpc::EndpointStats SurrogateServer::aggregate_stats() const {
  rpc::EndpointStats sum;
  for (const std::size_t slot : order_) {
    sum += slots_[slot]->client_ep_->stats();
    sum += slots_[slot]->surrogate_ep_->stats();
  }
  return sum;
}

}  // namespace aide::platform
