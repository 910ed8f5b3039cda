#include "platform/surrogate_server.hpp"

namespace aide::platform {

Session::Session(SessionId id,
                 std::shared_ptr<const vm::ClassRegistry> registry,
                 const ServerConfig& cfg, SimClock& clock,
                 std::shared_ptr<const analysis::StartupGates> gates,
                 std::unique_ptr<vm::Vm> device)
    : Platform(std::move(registry), cfg, clock, id, std::move(gates),
               std::move(device)),
      id_(id),
      budget_(cfg.budget) {}

std::optional<std::uint64_t> Session::migrate(std::span<const ObjectId> ids) {
  // Price the batch before anything moves so a refusal has no side effects.
  std::uint64_t batch_bytes = 0;
  for (const ObjectId id : ids) {
    if (const vm::Object* o = client().find_object(id); o != nullptr) {
      batch_bytes += static_cast<std::uint64_t>(o->size_bytes());
    }
  }
  if (budget_.max_offloaded_bytes != 0 &&
      offloaded_bytes() + batch_bytes > budget_.max_offloaded_bytes) {
    budget_refusals_ += 1;
    return std::nullopt;
  }
  return Platform::migrate(ids);
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
      gates_(std::make_shared<const analysis::StartupGates>(
          analysis::run_startup_gates(*registry_, config_.static_analysis,
                                      config_.effect_verify))) {
  slots_.reserve(config_.max_sessions);
  order_.reserve(config_.max_sessions);
}

Session* SurrogateServer::open_session() {
  return open_session(SessionId{next_session_});
}

Session* SurrogateServer::open_session(SessionId id,
                                       std::unique_ptr<vm::Vm> device) {
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
                                           gates_, std::move(device));
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
      s.turns_ += 1;
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
        slots_[slot]->client_endpoint().rtt_estimator();
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
    sum += session_stats(*slots_[slot]);
  }
  return sum;
}

}  // namespace aide::platform
