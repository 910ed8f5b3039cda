// Surrogate pool: k SurrogateServers behind one admission front door.
//
// One SurrogateServer multiplexes sessions on ONE surrogate, and its
// sessions/sec stays flat as sessions are added. The pool adds capacity: k
// servers share one virtual clock (turns still serialize on a single
// timeline, so every run is exactly reproducible), yet members share no
// state and each runs its own sessions' turns one at a time, so a member's
// busy time is its sessions' summed Session::service_time() and the pool
// finishes when its busiest member does (bench_fleet's pool table). A
// deterministic placement policy decides which member admits each new
// session by scoring every live member with the unweighted sum of three
// terms:
//
//   * CPU-speed ratio      — 1 / surrogate_speedup: a faster surrogate
//                            clears turns sooner,
//   * link cost            — the mean smoothed RTT of the member's live
//                            sessions (per-session EndpointStats feed the
//                            Jacobson estimator), falling back to the
//                            configured link's null RTT before any sample,
//   * current load         — admitted-session share of max_sessions plus
//                            the member's offloaded-bytes share of budget.
//
// Lower score wins; ties break to the lowest member index, so placement is
// a pure function of the pool's observable state. On surrogate death each of
// the dead member's sessions takes the single-platform surrogate-death path
// (the link state machine's peer-lost reclaim pulls its offloaded objects
// into the client heap) and is then re-placed onto the next-best *surviving*
// peer (never back to the client while a peer remains): re-placement is
// re-admission — a session with a new id and an empty surrogate heap that
// adopts the client VM, heap and all, with the driver slot carried over.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "platform/surrogate_server.hpp"

namespace aide::platform {

struct PoolConfig {
  // One ServerConfig per pool member (member i's CPU ratio is
  // members[i].surrogate_speedup and its client link members[i].link).
  // Empty is invalid; a single entry is the single-surrogate server.
  std::vector<ServerConfig> members;
};

// Pool-level accounting. Same flat-uint64 layout contract as ServerStats.
struct PoolStats {
  std::uint64_t placements = 0;            // admissions routed by the policy
  std::uint64_t replacements = 0;          // sessions moved off a dead member
  std::uint64_t admission_rejections = 0;  // every live member refused
  std::uint64_t deaths = 0;                // kill_surrogate calls
};

// One session moved off a dead surrogate: `old_id` closed on member `from`,
// re-admitted as `new_id` on member `to` (client VM and driver_state carried
// over).
struct Replacement {
  SessionId old_id{0};
  SessionId new_id{0};
  std::size_t from = 0;
  std::size_t to = 0;
};

class SurrogatePool {
 public:
  SurrogatePool(std::shared_ptr<const vm::ClassRegistry> registry,
                PoolConfig config);

  SurrogatePool(const SurrogatePool&) = delete;
  SurrogatePool& operator=(const SurrogatePool&) = delete;

  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] std::size_t alive_count() const noexcept { return alive_n_; }
  [[nodiscard]] bool alive(std::size_t i) const noexcept { return alive_[i]; }
  [[nodiscard]] SurrogateServer& member(std::size_t i) noexcept {
    return *members_[i];
  }
  [[nodiscard]] const PoolStats& stats() const noexcept { return stats_; }

  // The deterministic placement score of member `i` (lower is better);
  // infinity when the member is dead or full. Exposed so tests can assert
  // the policy's arithmetic directly.
  [[nodiscard]] double placement_score(std::size_t i) const;
  // The member the policy would choose right now; size() when none can
  // admit.
  [[nodiscard]] std::size_t best_member() const;

  // Admission front door: scores every member and admits on the best.
  // Returns nullptr (counting a pool admission rejection) only when every
  // live member is full or no member is alive. Session ids are minted
  // pool-globally, so ids — and therefore node/object-id spaces — stay
  // disjoint across members.
  Session* open_session();
  // Member currently serving `id`; size() when unknown.
  [[nodiscard]] std::size_t member_of(SessionId id) const;
  [[nodiscard]] Session* find_session(SessionId id) noexcept;
  void close_session(SessionId id);
  [[nodiscard]] std::size_t session_count() const noexcept;

  // Surrogate death: member `i` stops serving; each of its sessions loses
  // its peer (reclaiming its offloaded objects into the client heap) and is
  // re-admitted, client VM included, on the best surviving peer (next-best
  // placement, never a local fallback while any peer remains), in ascending
  // session-id order so the re-placement schedule is deterministic. Returns
  // the old->new session mapping; sessions that found no peer with a free
  // slot are reported with `to == size()` and simply closed.
  std::vector<Replacement> kill_surrogate(std::size_t i);

  // Deterministic pool scheduling: one pool round runs one server round on
  // every live member, in ascending member index, all on the shared clock.
  // Returns the number of pool rounds executed (stops early when no member
  // has a live session).
  std::size_t run_rounds(std::size_t max_rounds,
                         const SurrogateServer::TurnFn& turn);

  // Member counters summed via ServerStats::operator+=.
  [[nodiscard]] ServerStats aggregate_server_stats() const;

 private:
  PoolConfig config_;
  SimClock clock_;
  std::vector<std::unique_ptr<SurrogateServer>> members_;
  std::vector<bool> alive_;
  std::size_t alive_n_ = 0;
  // Sorted so every id-indexed walk (kill_surrogate) is in ascending id
  // order regardless of admission interleaving.
  std::map<std::uint32_t, std::size_t> member_of_;
  std::uint32_t next_id_ = 0;
  PoolStats stats_;
};

}  // namespace aide::platform
