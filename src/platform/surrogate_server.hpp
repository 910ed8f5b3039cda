// Multi-session surrogate server.
//
// The paper's prototype pairs exactly one client with one surrogate; every
// scale story stops there. A SurrogateServer turns the surrogate side into a
// daemon that serves many concurrent client sessions on one shared virtual
// clock:
//
//   shared-immutable  — one ClassRegistry (interned symbol tables, call-site
//                       epochs, effect summaries) plus the aidelint /
//                       aideverify reports derived from it, all computed
//                       once at server startup and referenced read-only by
//                       every session. Opening a session pays zero
//                       class-metadata cost.
//   per-session       — everything mutable: each session is a Platform
//                       (platform.hpp) on the server clock — its client and
//                       surrogate VMs (each with its own slab heap), its
//                       endpoint pair (refmap tables under a session-unique
//                       handle namespace, epoch/seq fence state, reply
//                       cache), its own link with independent fault and
//                       jitter streams, its monitors and its link state
//                       machine. Sessions cannot observe each other:
//                       a leaked cross-session handle is rejected at the
//                       refmap boundary and one session's epoch bumps or
//                       aborts never fence a neighbor's frames.
//   admission/budget  — max_sessions caps concurrent sessions (open_session
//                       refuses beyond it), and each session carries an
//                       offloaded-bytes budget (every migration that would
//                       exceed it is refused).
//   scheduling        — deterministic round-robin turns: each round visits
//                       every live session in ascending session-id order and
//                       runs its turn function to the next yield point. All
//                       sessions share the server's virtual clock, extending
//                       the paper's "the two VMs do not execute application
//                       code simultaneously" model to N+1 VMs: turns
//                       serialize in virtual time, so every run is exactly
//                       reproducible and the dispatch path allocates nothing
//                       in steady state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/counters.hpp"
#include "platform/platform.hpp"

namespace aide::platform {

// Per-session resource budget. Zero means unlimited.
struct SessionBudget {
  // Total bytes a session may hold offloaded on the surrogate; an offload
  // that would exceed it is refused (the session keeps running client-local).
  std::uint64_t max_offloaded_bytes = 0;
};

// Every session runs the PlatformConfig part; the startup gates it selects
// run once over the shared registry, never per session.
struct ServerConfig : PlatformConfig {
  // Admission control: concurrent-session cap.
  std::size_t max_sessions = 64;
  SessionBudget budget;
};

enum class TurnOutcome : std::uint8_t {
  yielded,   // turn finished at a yield point; schedule the session again
  finished,  // session script complete; the server closes the session
};

// One admitted client session: a Platform on the server clock, sharing only
// the registry, the startup gates and the clock with its neighbors, plus the
// server's admission, budget and scheduling state.
class Session : public Platform {
 public:
  // A non-null `device` is a failed-over session's client VM, adopted with
  // its heap (Platform's session form).
  Session(SessionId id, std::shared_ptr<const vm::ClassRegistry> registry,
          const ServerConfig& cfg, SimClock& clock,
          std::shared_ptr<const analysis::StartupGates> gates,
          std::unique_ptr<vm::Vm> device);

  [[nodiscard]] SessionId id() const noexcept { return id_; }

  // Scripted offload of client objects to this session's surrogate heap,
  // through the budget-checked migrate(): false when it refuses.
  bool offload(std::span<const ObjectId> ids) {
    return migrate(ids).has_value();
  }
  // Bytes the session holds on its surrogate: the surrogate heap, so state
  // a pull-back or a recall brings home stops counting, and what offloaded
  // code allocates there counts.
  [[nodiscard]] std::uint64_t offloaded_bytes() const noexcept {
    return static_cast<std::uint64_t>(surrogate().heap().used());
  }
  [[nodiscard]] std::uint64_t budget_refusals() const noexcept {
    return budget_refusals_;
  }

  [[nodiscard]] std::uint64_t turns_taken() const noexcept { return turns_; }

  // Virtual time this session's turns have consumed (its own service time,
  // excluding the rounds where neighbors held the clock). The fleet bench's
  // per-session overhead gate compares this across fleet sizes, and its
  // pool table sums it per member as that member's busy time.
  [[nodiscard]] SimDuration service_time() const noexcept {
    return service_time_;
  }

  // Opaque driver slot: the turn function may park per-session script state
  // here (e.g. an iteration cursor) instead of allocating side tables.
  std::uint64_t driver_state = 0;

 protected:
  // Every offload, scripted or policy-driven, is priced here before anything
  // moves. Refuses (nullopt, nothing migrates, budget_refusals ticks) when
  // the batch would push the session past max_offloaded_bytes. Returns
  // nullopt while the surrogate is away, when it refuses the batch for
  // room, or when it is lost under the migration (the peer-lost transition
  // has then run).
  std::optional<std::uint64_t> migrate(
      std::span<const ObjectId> ids) override;

 private:
  friend class SurrogateServer;
  friend class SurrogatePool;  // failover releases the client VM

  SessionId id_;
  SessionBudget budget_;
  std::uint64_t budget_refusals_ = 0;
  std::uint64_t turns_ = 0;
  SimDuration service_time_ = 0;
  bool finished_ = false;  // marked by run_rounds, closed at round end
};

// Aggregate server accounting. Transport counters are kept namespaced per
// session (each session owns its endpoints); aggregate() sums them on demand,
// so a single admitted session's aggregate is byte-identical to that
// session's own endpoint stats.
//
// Layout contract (same as rpc::EndpointStats): every field is a uint64_t
// counter, so operator+= (the pool's aggregation) sums the struct as a flat
// array via accumulate_counters. The last three fields are load gauges
// snapshotted over the live sessions at stats() time; a pool's placement
// policy reads them as the member's current load.
struct ServerStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t admission_rejections = 0;
  std::uint64_t turns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t live_sessions = 0;    // gauge: sessions currently admitted
  std::uint64_t offloaded_bytes = 0;  // gauge: sum over live sessions
  std::uint64_t budget_refusals = 0;  // gauge: sum over live sessions

  ServerStats& operator+=(const ServerStats& o) noexcept {
    return accumulate_counters(*this, o);
  }
};

class SurrogateServer {
 public:
  // Runs the startup gates (analysis::run_startup_gates, the same ones a
  // lone Platform runs) once over the shared registry; every session holds
  // the result.
  SurrogateServer(std::shared_ptr<const vm::ClassRegistry> registry,
                  ServerConfig config = {});
  // Pool form: the server runs on `shared_clock` (not owned, must outlive
  // the server) so every pool member serializes turns on one virtual
  // timeline.
  SurrogateServer(std::shared_ptr<const vm::ClassRegistry> registry,
                  ServerConfig config, SimClock& shared_clock);

  SurrogateServer(const SurrogateServer&) = delete;
  SurrogateServer& operator=(const SurrogateServer&) = delete;

  [[nodiscard]] SimClock& clock() noexcept { return *clock_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  // Counter fields plus load gauges snapshotted over the live sessions.
  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const std::optional<analysis::AnalysisReport>&
  analysis_report() const noexcept {
    return gates_->analysis;
  }
  [[nodiscard]] const std::optional<analysis::VerifyReport>& verify_report()
      const noexcept {
    return gates_->verify;
  }

  // Admission control: opens a new isolated session, or returns nullptr
  // (counting an admission rejection) when max_sessions are already live.
  // The returned pointer stays valid until close_session.
  Session* open_session();
  // Pool form: admits under an externally minted id so ids stay globally
  // unique (and node/object-id spaces disjoint) across pool members. `id`
  // must be at least this server's next unminted id; the internal mint
  // advances past it, preserving the ascending-id order of `order_`. A
  // non-null `device` (failover) becomes the session's client VM.
  Session* open_session(SessionId id, std::unique_ptr<vm::Vm> device = nullptr);
  // Closes a session: severs its endpoint pair and releases its slot. The
  // freed slot is immediately available to a new admission.
  void close_session(SessionId id);

  [[nodiscard]] std::size_t session_count() const noexcept { return live_; }
  [[nodiscard]] Session* find_session(SessionId id) noexcept;

  // Deterministic round-robin scheduling: runs up to `max_rounds` rounds; in
  // each round every live session, in ascending session-id order, takes one
  // turn. A turn that returns TurnOutcome::finished closes its session at
  // the end of the round (so one round's visit order is never perturbed
  // mid-flight). Returns after max_rounds rounds or when no session remains.
  // The dispatch loop performs no allocations: turn state lives in the
  // sessions and the round order is the slot order itself.
  using TurnFn = std::function<TurnOutcome(Session&)>;
  std::size_t run_rounds(std::size_t max_rounds, const TurnFn& turn);

  // Per-session transport stats, summed across the given session's two
  // endpoints — the per-session namespace of the server's accounting.
  [[nodiscard]] static rpc::EndpointStats session_stats(Session& s) {
    rpc::EndpointStats sum = s.client_endpoint().stats();
    sum += s.surrogate_endpoint().stats();
    return sum;
  }
  // Aggregate transport stats over every live session.
  [[nodiscard]] rpc::EndpointStats aggregate_stats() const;

  // Mean smoothed transport RTT (virtual ns) over the live sessions' client
  // endpoints — the pool placement policy's live link-cost signal. 0.0
  // until any session's estimator is primed.
  [[nodiscard]] double mean_session_srtt() const;

 private:
  ServerConfig config_;
  SimClock own_clock_;
  SimClock* clock_ = &own_clock_;  // pool members point at the shared clock
  std::shared_ptr<const vm::ClassRegistry> registry_;
  std::shared_ptr<const analysis::StartupGates> gates_;

  void do_close(std::size_t slot);

  // Slot table: closed sessions leave a null slot that the next admission
  // reuses; session ids are minted monotonically and never reused. `order_`
  // holds the live slots in admission order — ascending session id, since
  // ids are monotone — and is what the round-robin dispatch iterates.
  std::vector<std::unique_ptr<Session>> slots_;
  std::vector<std::size_t> order_;
  std::size_t live_ = 0;
  std::uint32_t next_session_ = 0;
  ServerStats stats_;
};

}  // namespace aide::platform
