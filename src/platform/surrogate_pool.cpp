#include "platform/surrogate_pool.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace aide::platform {

SurrogatePool::SurrogatePool(std::shared_ptr<const vm::ClassRegistry> registry,
                             PoolConfig config)
    : config_(std::move(config)) {
  if (config_.members.empty()) {
    throw std::invalid_argument("SurrogatePool: need at least one member");
  }
  members_.reserve(config_.members.size());
  for (const ServerConfig& cfg : config_.members) {
    members_.push_back(
        std::make_unique<SurrogateServer>(registry, cfg, clock_));
  }
  alive_.assign(members_.size(), true);
  alive_n_ = members_.size();
}

double SurrogatePool::placement_score(std::size_t i) const {
  if (i >= members_.size() || !alive_[i]) {
    return std::numeric_limits<double>::infinity();
  }
  const SurrogateServer& m = *members_[i];
  const ServerConfig& cfg = config_.members[i];
  if (m.session_count() >= cfg.max_sessions) {
    return std::numeric_limits<double>::infinity();
  }

  // CPU term: a faster surrogate clears the same turn in less virtual time.
  const double cpu = 1.0 / std::max(cfg.surrogate_speedup, 1e-9);

  // Link term: mean smoothed RTT (seconds) over the member's live sessions'
  // client endpoints — the per-session Jacobson estimators are the pool's
  // only live view of each link. Before any sample (or with no sessions)
  // the configured link's null RTT stands in, so a fresh pool ranks members
  // by their provisioned links.
  const ServerStats load = m.stats();
  const double srtt_ns = m.mean_session_srtt();
  const double link_s =
      srtt_ns > 0.0 ? srtt_ns * 1e-9 : sim_to_seconds(cfg.link.null_rtt);

  // Load term: admitted share of the session cap plus the offloaded-bytes
  // share of the budget cap (when one is configured).
  double load_term =
      static_cast<double>(load.live_sessions) /
      static_cast<double>(std::max<std::size_t>(cfg.max_sessions, 1));
  if (cfg.budget.max_offloaded_bytes != 0 && load.live_sessions > 0) {
    load_term += static_cast<double>(load.offloaded_bytes) /
                 (static_cast<double>(cfg.budget.max_offloaded_bytes) *
                  static_cast<double>(load.live_sessions));
  }

  return cpu + link_s + load_term;
}

std::size_t SurrogatePool::best_member() const {
  std::size_t best = members_.size();
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const double s = placement_score(i);
    // Strict less-than: ties stay with the lowest index.
    if (s < best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

Session* SurrogatePool::open_session() {
  const std::size_t i = best_member();
  if (i == members_.size()) {
    stats_.admission_rejections += 1;
    return nullptr;
  }
  const SessionId id{next_id_++};
  Session* s = members_[i]->open_session(id);
  if (s == nullptr) {
    stats_.admission_rejections += 1;
    return nullptr;
  }
  member_of_.emplace(id.value(), i);
  stats_.placements += 1;
  return s;
}

std::size_t SurrogatePool::member_of(SessionId id) const {
  const auto it = member_of_.find(id.value());
  return it == member_of_.end() ? members_.size() : it->second;
}

Session* SurrogatePool::find_session(SessionId id) noexcept {
  const auto it = member_of_.find(id.value());
  if (it == member_of_.end()) return nullptr;
  return members_[it->second]->find_session(id);
}

void SurrogatePool::close_session(SessionId id) {
  const auto it = member_of_.find(id.value());
  if (it == member_of_.end()) return;
  members_[it->second]->close_session(id);
  member_of_.erase(it);
}

std::size_t SurrogatePool::session_count() const noexcept {
  std::size_t n = 0;
  for (const auto& m : members_) n += m->session_count();
  return n;
}

std::vector<Replacement> SurrogatePool::kill_surrogate(std::size_t i) {
  std::vector<Replacement> moved;
  if (i >= members_.size() || !alive_[i]) return moved;
  alive_[i] = false;
  alive_n_ -= 1;
  stats_.deaths += 1;

  // Collect the dead member's sessions in ascending id order (member_of_ is
  // id-sorted), then re-admit each on the best surviving peer, never falling
  // back to the client while any peer remains. Re-placement is re-admission
  // under a fresh pool-unique id that adopts the client device: the
  // victim's own peer-lost transition first reclaims its surrogate-resident
  // objects into the device heap (charging the recovery channel), then the
  // device is released before the victim closes, since closing still
  // disconnects the device's endpoint.
  std::vector<std::uint32_t> victims;
  for (const auto& [id, m] : member_of_) {
    if (m == i) victims.push_back(id);
  }
  for (const std::uint32_t old_raw : victims) {
    const SessionId old_id{old_raw};
    Session* old_s = members_[i]->find_session(old_id);
    std::uint64_t carried = 0;
    std::unique_ptr<vm::Vm> device;
    if (old_s != nullptr) {
      old_s->handle_peer_failure();
      carried = old_s->driver_state;
      device = old_s->release_client();
    }
    members_[i]->close_session(old_id);
    member_of_.erase(old_raw);

    Replacement r;
    r.old_id = old_id;
    r.from = i;
    r.to = members_.size();
    const std::size_t peer = best_member();
    if (peer != members_.size()) {
      const SessionId new_id{next_id_++};
      Session* fresh = members_[peer]->open_session(new_id, std::move(device));
      if (fresh != nullptr) {
        fresh->driver_state = carried;
        member_of_.emplace(new_id.value(), peer);
        r.new_id = new_id;
        r.to = peer;
        stats_.replacements += 1;
      }
    }
    moved.push_back(r);
  }
  return moved;
}

std::size_t SurrogatePool::run_rounds(std::size_t max_rounds,
                                      const SurrogateServer::TurnFn& turn) {
  std::size_t rounds = 0;
  while (rounds < max_rounds && session_count() > 0) {
    rounds += 1;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (!alive_[i] || members_[i]->session_count() == 0) continue;
      members_[i]->run_rounds(1, turn);
    }
  }
  return rounds;
}

ServerStats SurrogatePool::aggregate_server_stats() const {
  ServerStats sum;
  for (const auto& m : members_) sum += m->stats();
  return sum;
}

}  // namespace aide::platform
