// Fleet emulation: N concurrent trace sessions against one shared surrogate.
//
// Each session replays its own trace through its own Emulator (own monitor,
// resource monitor, placement, heap model) over the resumable
// begin()/step()/finish() API; the fleet driver interleaves them
// min-virtual-time-first, so the session whose local clock is furthest behind
// always runs next — a deterministic discrete-event merge of N timelines
// (ties break toward the lowest session index). All sessions share one
// surrogate: every unit of surrogate occupancy — remote interactions,
// surrogate-placed compute, offload migrations — serializes through a single
// busy-until window, and the wait each op experiences lands in that session's
// EmulationResult::queue_time. A session never queues behind itself (its own
// occupancy is already serialized into its virtual time by the emulated-time
// formula), which makes a one-session fleet exactly equal to a plain
// Emulator::run of the same trace. A turn replays 256 trace events before
// the scheduler re-picks the furthest-behind session.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "emul/emulator.hpp"
#include "emul/trace.hpp"

namespace aide::emul {

struct FleetConfig {
  // Per-session emulator configuration (identical across the fleet).
  EmulatorConfig session;
  // Number of surrogates the shared pool holds. Each session binds to one
  // pool member at its first acquire — the member whose busy window frees
  // earliest, ties to the lowest index — and keeps it for the run. 1 is a
  // single shared surrogate.
  std::size_t pool_size = 1;
  // Hardware contexts per pool member. A session's first charge books the
  // member context that frees earliest (ties to the lowest context index)
  // and its later charges stay there, so a member retires up to
  // `surrogate_concurrency` sessions' charges in parallel; the charging
  // session's own timeline still pays its full service. 1 is a
  // single-context surrogate.
  std::size_t surrogate_concurrency = 1;
};

// One lazy session -> pool member binding, in binding order — the fleet's
// placement schedule, part of the determinism digest.
struct FleetPlacement {
  std::size_t session = 0;
  std::size_t surrogate = 0;
  SimTime at = 0;  // session-local virtual time of the first acquire
};

struct FleetResult {
  // One result per session, in session order.
  std::vector<EmulationResult> sessions;
  // Virtual latency of every remote op across the fleet (link cost plus
  // queueing delay), in replay order. Feeds p50/p95/p99.
  std::vector<SimDuration> op_latencies;
  // Longest per-session emulated time — the fleet's completion proxy on the
  // shared virtual-time axis.
  SimDuration makespan = 0;
  // Total virtual time the pool was occupied, summed over members.
  SimDuration surrogate_busy = 0;
  // Per-member occupancy (size pool_size) and the placement schedule.
  std::vector<SimDuration> surrogate_busy_each;
  std::vector<FleetPlacement> placements;
  std::uint64_t total_remote_ops = 0;
  std::uint64_t turns = 0;

  // Fairness spread: slowest session's emulated time over the fastest's.
  // 1.0 means perfectly even progress.
  [[nodiscard]] double fairness_spread() const noexcept {
    if (sessions.empty()) return 1.0;
    SimDuration lo = sessions.front().emulated_time;
    SimDuration hi = lo;
    for (const EmulationResult& r : sessions) {
      lo = r.emulated_time < lo ? r.emulated_time : lo;
      hi = r.emulated_time > hi ? r.emulated_time : hi;
    }
    if (lo <= 0) return 1.0;
    return static_cast<double>(hi) / static_cast<double>(lo);
  }
};

class FleetEmulator {
 public:
  FleetEmulator(std::shared_ptr<const vm::ClassRegistry> registry,
                FleetConfig config);

  // Runs one session per trace pointer, interleaved as described above.
  [[nodiscard]] FleetResult run(std::span<const Trace* const> traces);
  // Convenience: N sessions all replaying the same trace.
  [[nodiscard]] FleetResult run(const Trace& trace, std::size_t n_sessions);

 private:
  std::shared_ptr<const vm::ClassRegistry> registry_;
  FleetConfig config_;
};

}  // namespace aide::emul
