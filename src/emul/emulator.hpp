// Trace-driven emulator (paper section 4).
//
// Replays a recorded execution trace through the same monitoring, resource
// and partitioning modules as the prototype, and stretches simulated
// execution time to account for remote invocations and data accesses over
// the modeled link. Distributed execution is assumed equivalent to serial
// execution of the trace (the paper's simplification), so emulated time is:
//
//     sum(self_time / speed(placement(component)))
//   + sum(rpc cost for every cut-crossing interaction)
//   + migration cost for each offload event.
//
// The emulator supports repeated repartitioning, arbitrary trigger and
// partitioning policies (Figure 7's sweep), an emulated client heap capacity
// independent of the one the trace was recorded with, and the paper's two
// section 5.2 enhancements (stateless natives local, int arrays at object
// granularity).
//
// The execution graph is built only as long as a partitioning decision can
// still read it. Once the run passes its decision horizon — the
// max_offloads-th accepted offload in memory_gc mode, the one evaluation in
// trace_fraction mode, the first event when max_offloads is 0 — the replay
// keeps the placement lookups and every time and counter accumulator but
// feeds the monitor only allocations, frees and resizes. Every
// EmulationResult field is the same as with the full feed.
//
// So run() replays a trace in two loops split at the horizon: the first
// feeds the monitor and evaluates, the second neither feeds it interactions
// nor tests for an evaluation. Both inline one per-event body, and its
// accumulators live in a struct local to the replay, written into the
// result once, at the end.
//
// Under class granularity the second loop reads the trace's block
// summaries (trace.hpp) in three parts: events one by one up to the next
// block boundary; then, for each whole block, every summary entry charged
// `count` times in one step, followed by the block's allocations, frees,
// resizes and GC reports one by one, in order; then the tail after the last
// whole block one by one. The result is exact. No offload follows the
// horizon, so class placement is fixed. Every charge of an interaction or a
// frame exit is an integer that depends only on its summary key, so c equal
// events cost c times one. The heap model reads no interaction accumulator,
// so charging a block's interactions before its memory events changes
// nothing. And the monitor is fed no interaction, so no node is interned in
// a new order. One function, charge(), holds the routing and charging rules
// for both the per-event body (count 1) and a summary entry. Under the Array
// enhancement the second loop stays per event: an int[]'s side follows its
// object, and a promotion past the horizon changes it.
//
// Placement under class granularity is a side table: one byte per registry
// class, filled at every offload, so a lookup reads one byte. No class
// changes side between two evaluations, and a class interned after the last
// one is not placed yet and reads the client. Under the Array enhancement a
// promotion changes what index_of answers between evaluations, so there the
// lookup goes through the monitor's node index to the per-node placement.
//
// The replay reads the trace's columns (trace.hpp), not whole events: the
// 24-byte hot record of every event it replays one by one; the object ids
// for allocations, frees and resizes, and for interactions and frame exits
// only under the Array enhancement; the time only at an evaluation; a
// resize's delta through one forward cursor into the sparse aux list; and
// past the horizon under class granularity, the block summaries and the
// memory-event list.
//
// Each emulated session has a dedicated surrogate, as in the paper: nothing
// queues. Multi-surrogate numbers come from the real SurrogatePool
// (platform/surrogate_pool.hpp), not from replayed traces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "emul/trace.hpp"
#include "monitor/monitor.hpp"
#include "monitor/resource_monitor.hpp"
#include "netsim/link.hpp"
#include "partition/partitioner.hpp"
#include "vm/klass.hpp"

namespace aide::emul {

enum class TriggerMode {
  // Low-memory GC reports trigger partitioning (memory experiments, 5.1).
  memory_gc,
  // Partitioning is evaluated once after a fixed fraction of the trace has
  // replayed (processing experiments, 5.2).
  trace_fraction,
};

// The Emulator constructor throws std::invalid_argument, naming the field,
// for a NaN or negative eval_at_fraction, a surrogate_speedup that is not
// positive, a heap_capacity <= 0, a min_free_fraction outside [0, 1] and a
// NaN or negative gc_pressure_cost_ns_per_live_byte.
struct EmulatorConfig {
  netsim::LinkParams link = netsim::LinkParams::wavelan();
  // Surrogate/client CPU ratio. Figure 6 uses 1.0 ("the same processor speed
  // was used for both"); Figure 10 uses 3.5.
  double surrogate_speedup = 1.0;

  TriggerMode trigger_mode = TriggerMode::memory_gc;
  monitor::TriggerPolicy trigger;
  // trace_fraction mode; 1 or more never evaluates.
  double eval_at_fraction = 0.10;

  partition::Objective objective = partition::Objective::free_memory;
  double min_free_fraction = 0.20;
  std::size_t max_offloads = 1;

  // Client heap capacity the emulation assumes (may differ from the heap the
  // trace was recorded with).
  std::int64_t heap_capacity = std::int64_t{6} << 20;

  // Paper 5.2 enhancements.
  bool stateless_natives_local = false;  // "Native"
  bool arrays_as_objects = false;        // "Array"
  std::int64_t min_array_bytes = 4096;

  // GC-pressure model: as the client heap approaches exhaustion, collection
  // cycles run back-to-back ("triggered by space limitations"), each paying a
  // mark/sweep pass over the live set. Per GC report the emulator charges
  //   (bytes allocated since last report / free headroom) * live * this cost.
  // 0 disables the model (CPU experiments run with ample heap anyway); the
  // memory experiments enable it — it is why the paper's early-trigger
  // policies beat the initial policy for Dia and Biomer (Figure 7).
  double gc_pressure_cost_ns_per_live_byte = 0.0;

  // Manual partitioning (paper 5.2: "by partitioning the application
  // manually, we were able to find a beneficial partitioning"): when
  // non-empty, the trigger offloads exactly the named classes instead of
  // consulting the partitioning policy.
  std::vector<std::string> manual_offload_classes;
};

struct OffloadSnapshot {
  SimTime at = 0;  // trace time of the offload
  partition::PartitionDecision decision;
  std::uint64_t migrated_bytes = 0;
  std::size_t components = 0;
};

struct EmulationResult {
  SimDuration base_time = 0;      // client-only execution of the trace
  SimDuration emulated_time = 0;  // with offloading and stretching
  SimDuration comm_time = 0;      // stretching added for remote interactions
  SimDuration migration_time = 0;
  SimDuration gc_pressure_time = 0;  // near-exhaustion collection overhead

  std::uint64_t total_invocations = 0;
  std::uint64_t remote_invocations = 0;
  std::uint64_t remote_native_invocations = 0;  // Figure 8
  std::uint64_t total_accesses = 0;
  std::uint64_t remote_accesses = 0;
  std::uint64_t remote_bytes = 0;

  // Peak emulated client heap occupancy (bytes); exceeding the configured
  // capacity with offloading disabled means the run would have failed with
  // an out-of-memory error (the paper's JavaNote-at-6MB scenario).
  std::int64_t peak_client_live = 0;

  std::vector<OffloadSnapshot> offloads;
  // The last evaluation that declined to offload (Biomer's Figure 10 case).
  std::vector<partition::PartitionDecision> declined;

  [[nodiscard]] bool offloaded() const noexcept { return !offloads.empty(); }
  [[nodiscard]] double overhead_fraction() const noexcept {
    if (base_time <= 0) return 0.0;
    return static_cast<double>(emulated_time - base_time) /
           static_cast<double>(base_time);
  }
  [[nodiscard]] double speedup() const noexcept {
    if (emulated_time <= 0) return 1.0;
    return static_cast<double>(base_time) /
           static_cast<double>(emulated_time);
  }
};

class Emulator {
 public:
  Emulator(std::shared_ptr<const vm::ClassRegistry> registry,
           EmulatorConfig config);

  [[nodiscard]] EmulationResult run(const Trace& trace);

  // The monitor of the last run (Figure 5 rendering). Edges, self-times,
  // counters and GC samples stop at the decision horizon, the run's last
  // possible partitioning evaluation; components that allocate, and every
  // node's mem_bytes and live objects, stay current to the end of the trace.
  [[nodiscard]] const monitor::ExecutionMonitor& last_monitor() const {
    return *monitor_;
  }

 private:
  using NodeIndex = monitor::ExecutionMonitor::NodeIndex;
  // One replay's accumulators (emulator.cpp).
  struct Replay;

  // Replays the whole trace into result_; kObjects is arrays_as_objects.
  template <bool kObjects>
  void replay(const TraceEvents& events);
  // Replays event i. kFeed: the run is short of its decision horizon, so
  // the event feeds the monitor and a GC report may evaluate; returns true
  // when that evaluation reaches the horizon. Allocations, frees and resizes
  // feed the monitor either way: the GC report's offloaded-bytes sum reads
  // the placed nodes' mem_bytes, and an Array promotion changes what
  // index_of answers. Inlined into both loops: no call per event, and the
  // accumulators' address never escapes to a call.
  template <bool kFeed, bool kObjects>
  [[gnu::always_inline]] inline bool replay_event(const TraceEvents& events,
                                                  std::size_t i, Replay& r);
  // Charges `count` frame exits, invocations or accesses that share e's
  // summary key (trace.hpp), objs being the event's objects under kObjects:
  // count 1 from replay_event, an entry's count from a block summary.
  // Returns whether an invocation or access crosses the link.
  template <bool kObjects>
  [[gnu::always_inline]] inline bool charge(const HotEvent& e,
                                            EventObjects objs,
                                            std::uint64_t count,
                                            Replay& r) const;
  // Side holding the component of (cls, obj): 1 the surrogate, 0 the
  // client (header comment).
  template <bool kObjects>
  [[nodiscard, gnu::always_inline]] inline int side_of(ClassId cls,
                                                       ObjectId obj) const;

  [[nodiscard]] SimDuration rpc_cost(std::uint64_t bytes) const;
  void try_offload(SimTime at, EmulationResult& result);

  std::shared_ptr<const vm::ClassRegistry> registry_;
  EmulatorConfig config_;
  std::unique_ptr<monitor::ExecutionMonitor> monitor_;
  std::unique_ptr<monitor::ResourceMonitor> resource_;
  // Dense placement, indexed by the monitor's NodeIndex: the side each node
  // sits on as of the last offload. Nodes interned since then sit past the
  // vector's end, and npos (not interned yet) is past every end: both read
  // the client. prune_dead_components() is the only renumbering and runs at
  // the top of try_offload, which carries the vector across it.
  std::vector<int> placement_;
  // placement_ by ClassId for the class-granularity nodes, 0 for every
  // class without a placed node; sized to the registry at the top of run()
  // and refilled by try_offload.
  std::vector<std::uint8_t> class_side_;

  EmulationResult result_;
};

}  // namespace aide::emul
