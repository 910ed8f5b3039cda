// Tests for the trace-driven emulator: time stretching for remote
// interactions, CPU re-scaling under placement, trigger modes, the native and
// array enhancements, repeated repartitioning and the class placement each
// offload sets, the emulated heap model, traces naming unknown class ids, the
// decision horizon past which the monitor is no longer fed, the block
// summaries charged past it, and out-of-range configuration values.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "emul/emulator.hpp"
#include "tests/test_util.hpp"

namespace aide::emul {
namespace {

using aide::test::interactions_in;
using aide::test::make_test_registry;

// Builds synthetic traces against the test registry. Class roles:
//   Device (pinned, native), Counter (compute), Pair (data).
class TraceBuilder {
 public:
  explicit TraceBuilder(const vm::ClassRegistry& reg)
      : device_(reg.find("Device")),
        counter_(reg.find("Counter")),
        pair_(reg.find("Pair")),
        int_array_(reg.int_array_class()) {}

  TraceBuilder& alloc(ObjectId obj, ClassId cls, std::int64_t bytes) {
    TraceEvent e;
    e.type = TraceEventType::alloc;
    e.t = now_;
    e.obj_a = obj;
    e.cls_a = cls;
    e.bytes = bytes;
    trace_.events.push_back(e);
    return *this;
  }

  TraceBuilder& free_obj(ObjectId obj, ClassId cls, std::int64_t bytes) {
    TraceEvent e;
    e.type = TraceEventType::free_obj;
    e.t = now_;
    e.obj_a = obj;
    e.cls_a = cls;
    e.bytes = bytes;
    trace_.events.push_back(e);
    return *this;
  }

  TraceBuilder& invoke(ClassId from, ClassId to, std::uint64_t bytes,
                       std::uint8_t flags = 0,
                       ObjectId to_obj = ObjectId::invalid()) {
    TraceEvent e;
    e.type = TraceEventType::invoke;
    e.t = now_;
    e.cls_a = from;
    e.cls_b = to;
    e.obj_b = to_obj;
    e.bytes = static_cast<std::int64_t>(bytes);
    e.flags = flags;
    trace_.events.push_back(e);
    return *this;
  }

  TraceBuilder& self_time(ClassId cls, SimDuration d,
                          ObjectId obj = ObjectId::invalid()) {
    now_ += d;
    TraceEvent e;
    e.type = TraceEventType::method_exit;
    e.t = now_;
    e.cls_a = cls;
    e.obj_a = obj;
    e.bytes = d;
    trace_.events.push_back(e);
    return *this;
  }

  TraceBuilder& gc() {
    TraceEvent e;
    e.type = TraceEventType::gc;
    e.t = now_;
    trace_.events.push_back(e);
    return *this;
  }

  TraceBuilder& raw(TraceEvent e) {
    e.t = now_;
    trace_.events.push_back(e);
    return *this;
  }

  [[nodiscard]] const Trace& trace() const { return trace_; }

  ClassId device_, counter_, pair_, int_array_;

 private:
  Trace trace_;
  SimTime now_ = 0;
};

EmulatorConfig base_config() {
  EmulatorConfig cfg;
  cfg.heap_capacity = 1 << 20;
  cfg.trigger.low_free_threshold = 0.10;
  cfg.trigger.consecutive_reports = 2;
  cfg.min_free_fraction = 0.20;
  return cfg;
}

// A memory-pressure trace: Device draws via Pair data; Pair's memory exceeds
// 90% of the emulated heap, so GC reports trigger partitioning.
Trace memory_trace(const std::shared_ptr<vm::ClassRegistry>& reg) {
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  // History: device interacts with counter (hot), counter with pair (cold).
  for (int i = 0; i < 50; ++i) {
    b.invoke(b.device_, b.counter_, 64, kFlagNative);
    b.self_time(b.counter_, sim_ms(10));
  }
  for (int i = 0; i < 5; ++i) {
    b.invoke(b.counter_, b.pair_, 32);
  }
  // Pair grows to 960 KB of the 1 MB heap; trailing GC cycles report the
  // sustained low-memory condition (the trigger needs consecutive reports).
  for (int i = 0; i < 6; ++i) {
    b.alloc(ObjectId{100 + static_cast<std::uint64_t>(i)}, b.pair_,
            160 * 1024);
    b.gc();
  }
  b.gc();
  b.gc();
  // Post-offload activity: more counter/pair interactions.
  for (int i = 0; i < 40; ++i) {
    b.invoke(b.counter_, b.pair_, 32);
    b.self_time(b.counter_, sim_ms(5));
  }
  return b.trace();
}

// A compute trace for the trace_fraction mode: the pinned device starts
// Counter, whose heavy self-time alternates with calls into a Pair.
Trace compute_trace(const std::shared_ptr<vm::ClassRegistry>& reg) {
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  b.alloc(ObjectId{2}, b.counter_, 1024);
  b.alloc(ObjectId{3}, b.pair_, 1024);
  b.invoke(b.device_, b.counter_, 16, kFlagNative);
  for (int i = 0; i < 100; ++i) {
    b.self_time(b.counter_, sim_ms(100));
    b.invoke(b.counter_, b.pair_, 8, 0, ObjectId{3});
  }
  return b.trace();
}

EmulatorConfig compute_config() {
  EmulatorConfig cfg = base_config();
  cfg.trigger_mode = TriggerMode::trace_fraction;
  cfg.eval_at_fraction = 0.10;
  cfg.objective = partition::Objective::speed_up;
  cfg.surrogate_speedup = 3.5;
  return cfg;
}

// Every EmulationResult field. Offloads compare by time, migrated bytes and
// selected components; declined evaluations by count.
void expect_same_result(const EmulationResult& a, const EmulationResult& b) {
  EXPECT_EQ(a.base_time, b.base_time);
  EXPECT_EQ(a.emulated_time, b.emulated_time);
  EXPECT_EQ(a.comm_time, b.comm_time);
  EXPECT_EQ(a.migration_time, b.migration_time);
  EXPECT_EQ(a.gc_pressure_time, b.gc_pressure_time);
  EXPECT_EQ(a.total_invocations, b.total_invocations);
  EXPECT_EQ(a.remote_invocations, b.remote_invocations);
  EXPECT_EQ(a.remote_native_invocations, b.remote_native_invocations);
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.remote_accesses, b.remote_accesses);
  EXPECT_EQ(a.remote_bytes, b.remote_bytes);
  EXPECT_EQ(a.peak_client_live, b.peak_client_live);
  ASSERT_EQ(a.offloads.size(), b.offloads.size());
  for (std::size_t i = 0; i < a.offloads.size(); ++i) {
    EXPECT_EQ(a.offloads[i].at, b.offloads[i].at) << "offload " << i;
    EXPECT_EQ(a.offloads[i].migrated_bytes, b.offloads[i].migrated_bytes)
        << "offload " << i;
    EXPECT_EQ(a.offloads[i].decision.selected.offload,
              b.offloads[i].decision.selected.offload)
        << "offload " << i;
  }
  EXPECT_EQ(a.declined.size(), b.declined.size());
}

TEST(EmulatorTest, NoOffloadMeansNoStretch) {
  auto reg = make_test_registry();
  auto cfg = base_config();
  cfg.max_offloads = 0;
  Emulator emu(reg, cfg);
  const auto result = emu.run(memory_trace(reg));
  EXPECT_FALSE(result.offloaded());
  EXPECT_EQ(result.emulated_time, result.base_time);
  EXPECT_EQ(result.remote_invocations, 0u);
  EXPECT_DOUBLE_EQ(result.overhead_fraction(), 0.0);
}

TEST(EmulatorTest, PeakClientLiveTracksHeap) {
  auto reg = make_test_registry();
  auto cfg = base_config();
  cfg.max_offloads = 0;
  Emulator emu(reg, cfg);
  const auto result = emu.run(memory_trace(reg));
  // 6 * 160 KB of Pair + device: near but under 1 MB.
  EXPECT_GT(result.peak_client_live, 900 * 1024);
  EXPECT_LE(result.peak_client_live, 1 << 20);
}

TEST(EmulatorTest, MemoryTriggerOffloadsAndStretches) {
  auto reg = make_test_registry();
  Emulator emu(reg, base_config());
  const auto result = emu.run(memory_trace(reg));
  ASSERT_TRUE(result.offloaded());
  // Pair was the big, loosely-coupled component.
  bool pair_offloaded = false;
  for (const auto& comp : result.offloads[0].decision.selected.offload) {
    if (comp.cls == reg->find("Pair")) pair_offloaded = true;
    EXPECT_NE(comp.cls, reg->find("Device"));  // pinned
  }
  EXPECT_TRUE(pair_offloaded);
  // Remote interactions and migration stretch the time.
  EXPECT_GT(result.remote_accesses + result.remote_invocations, 0u);
  EXPECT_GT(result.emulated_time, result.base_time);
  EXPECT_GT(result.migration_time, 0);
  EXPECT_GT(result.overhead_fraction(), 0.0);
}

TEST(EmulatorTest, OffloadReducesPeakClientLive) {
  auto reg = make_test_registry();
  Emulator with(reg, base_config());
  const auto offloaded = with.run(memory_trace(reg));
  auto cfg = base_config();
  cfg.max_offloads = 0;
  Emulator without(reg, cfg);
  const auto plain = without.run(memory_trace(reg));
  ASSERT_TRUE(offloaded.offloaded());
  EXPECT_LT(offloaded.offloads[0].decision.selected.offload_mem_bytes + 1,
            plain.peak_client_live + 1);
  // The peak may be reached just before the trigger fires, so the offloaded
  // run's peak can equal (never exceed) the plain run's.
  EXPECT_LE(offloaded.peak_client_live, plain.peak_client_live);
}

TEST(EmulatorTest, SurrogateSpeedupShrinksOffloadedCompute) {
  // CPU trace: pinned device + heavy compute in Counter, loose coupling.
  auto reg = make_test_registry();
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  b.alloc(ObjectId{2}, b.counter_, 1024);
  b.invoke(b.device_, b.counter_, 16, kFlagNative);
  for (int i = 0; i < 100; ++i) {
    b.self_time(b.counter_, sim_sec(1));
  }

  EmulatorConfig cfg = base_config();
  cfg.trigger_mode = TriggerMode::trace_fraction;
  cfg.eval_at_fraction = 0.10;
  cfg.objective = partition::Objective::speed_up;
  cfg.surrogate_speedup = 3.5;
  Emulator emu(reg, cfg);
  const auto result = emu.run(b.trace());
  ASSERT_TRUE(result.offloaded());
  // ~100s of compute shrinks towards 100/3.5 plus small overheads; some
  // compute happened before the evaluation point.
  EXPECT_LT(result.emulated_time, result.base_time);
  EXPECT_LT(result.emulated_time, sim_sec(45));
  EXPECT_GT(result.speedup(), 2.0);
}

TEST(EmulatorTest, SpeedupObjectiveDeclinesWhenCoupled) {
  // Tight coupling: every compute step talks to the pinned device.
  auto reg = make_test_registry();
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  // 1 ms of compute per pinned-native round trip: the 2.4 ms RTT eats the
  // 3.5x speedup on every iteration.
  for (int i = 0; i < 200; ++i) {
    b.self_time(b.counter_, sim_ms(1));
    b.invoke(b.counter_, b.device_, 256, kFlagNative);
  }

  EmulatorConfig cfg = base_config();
  cfg.trigger_mode = TriggerMode::trace_fraction;
  cfg.objective = partition::Objective::speed_up;
  cfg.surrogate_speedup = 3.5;
  Emulator emu(reg, cfg);
  const auto result = emu.run(b.trace());
  EXPECT_FALSE(result.offloaded());
  ASSERT_EQ(result.declined.size(), 1u);
  EXPECT_EQ(result.emulated_time, result.base_time);
}

TEST(EmulatorTest, NativeCallsRouteToClientWithoutEnhancement) {
  // Counter offloaded; its stateless Math-style native calls still route to
  // the client, costing a round trip each.
  auto reg = make_test_registry();
  const ClassId util = reg->find("Util");
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  b.alloc(ObjectId{2}, b.counter_, 980 * 1024);
  b.invoke(b.device_, b.counter_, 16, kFlagNative);
  b.self_time(b.counter_, sim_sec(1));
  for (int i = 0; i < 3; ++i) b.gc();
  const int kNativeCalls = 50;
  for (int i = 0; i < kNativeCalls; ++i) {
    b.invoke(b.counter_, util, 16, kFlagNative | kFlagStatic | kFlagStateless);
  }

  EmulatorConfig cfg = base_config();
  cfg.stateless_natives_local = false;
  Emulator emu(reg, cfg);
  const auto result = emu.run(b.trace());
  ASSERT_TRUE(result.offloaded());
  EXPECT_EQ(result.remote_native_invocations,
            static_cast<std::uint64_t>(kNativeCalls));

  // With the "Native" enhancement the same trace has no remote native calls.
  cfg.stateless_natives_local = true;
  Emulator enhanced(reg, cfg);
  const auto better = enhanced.run(b.trace());
  ASSERT_TRUE(better.offloaded());
  EXPECT_EQ(better.remote_native_invocations, 0u);
  EXPECT_LT(better.emulated_time, result.emulated_time);
}

TEST(EmulatorTest, ArrayEnhancementSplitsArrayPlacement) {
  // Two large int arrays: one referenced by the pinned device, one by the
  // offloaded compute class. With class granularity they travel together;
  // with the Array enhancement they split.
  auto reg = make_test_registry();
  TraceBuilder b(*reg);
  const ObjectId client_arr{500}, compute_arr{501};
  b.alloc(ObjectId{1}, b.device_, 64);
  b.alloc(ObjectId{2}, b.counter_, 780 * 1024);
  b.alloc(client_arr, b.int_array_, 100 * 1024);
  b.alloc(compute_arr, b.int_array_, 100 * 1024);
  b.invoke(b.device_, b.counter_, 16, kFlagNative);
  b.self_time(b.counter_, sim_sec(1));
  // Device touches its array a lot; counter touches the other a lot.
  for (int i = 0; i < 200; ++i) {
    b.invoke(b.device_, b.int_array_, 8, 0, client_arr);
    b.invoke(b.counter_, b.int_array_, 8, 0, compute_arr);
  }
  for (int i = 0; i < 3; ++i) b.gc();
  // Post-offload accesses in the same pattern.
  for (int i = 0; i < 100; ++i) {
    b.invoke(b.device_, b.int_array_, 8, 0, client_arr);
    b.invoke(b.counter_, b.int_array_, 8, 0, compute_arr);
  }

  EmulatorConfig cfg = base_config();
  cfg.arrays_as_objects = false;
  Emulator coarse(reg, cfg);
  const auto coarse_result = coarse.run(b.trace());

  cfg.arrays_as_objects = true;
  cfg.min_array_bytes = 4096;
  Emulator fine(reg, cfg);
  const auto fine_result = fine.run(b.trace());

  ASSERT_TRUE(coarse_result.offloaded());
  ASSERT_TRUE(fine_result.offloaded());
  // Object granularity lets each array sit with its user: fewer remote ops.
  EXPECT_LT(fine_result.remote_invocations, coarse_result.remote_invocations);
  EXPECT_LT(fine_result.emulated_time, coarse_result.emulated_time);
}

TEST(EmulatorTest, StaticAccessesRouteToClient) {
  auto reg = make_test_registry();
  const ClassId calc = reg->find("Calc");
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  b.alloc(ObjectId{2}, b.counter_, 980 * 1024);
  b.invoke(b.device_, b.counter_, 16, kFlagNative);
  b.self_time(b.counter_, sim_sec(1));
  for (int i = 0; i < 3; ++i) b.gc();
  // Offloaded counter reads static data 30 times.
  for (int i = 0; i < 30; ++i) {
    TraceEvent e;
    e.type = TraceEventType::access;
    e.cls_a = b.counter_;
    e.cls_b = calc;
    e.flags = kFlagStatic;
    e.bytes = 8;
    b.raw(e);
  }

  Emulator emu(reg, base_config());
  const auto result = emu.run(b.trace());
  ASSERT_TRUE(result.offloaded());
  EXPECT_EQ(result.remote_accesses, 30u);
}

TEST(EmulatorTest, RepeatedRepartitioningAllowed) {
  auto reg = make_test_registry();
  auto cfg = base_config();
  cfg.max_offloads = 3;
  cfg.trigger.consecutive_reports = 1;
  Emulator emu(reg, cfg);

  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  b.invoke(b.device_, b.counter_, 16, kFlagNative);
  for (int wave = 0; wave < 3; ++wave) {
    b.alloc(ObjectId{100 + static_cast<std::uint64_t>(wave)}, b.pair_,
            950 * 1024);
    b.gc();
    b.free_obj(ObjectId{100 + static_cast<std::uint64_t>(wave)}, b.pair_,
               950 * 1024);
    b.gc();
  }
  const auto result = emu.run(b.trace());
  EXPECT_GE(result.offloads.size() + result.declined.size(), 1u);
  EXPECT_LE(result.offloads.size(), 3u);
}

TEST(EmulatorTest, EveryOffloadRefreshesClassPlacement) {
  // Two manual offloads of Counter. Counter is interned only after the
  // first, which finds no Counter node, so the device's calls into it stay
  // local until the second places it; the same calls past that last
  // offload cross the link. Class placement must follow each offload.
  auto reg = make_test_registry();
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  b.alloc(ObjectId{100}, b.pair_, 950 * 1024);
  b.gc();
  b.alloc(ObjectId{2}, b.counter_, 64);
  const int kLocalCalls = 7, kRemoteCalls = 11;
  for (int i = 0; i < kLocalCalls; ++i) b.invoke(b.device_, b.counter_, 16);
  b.gc();
  for (int i = 0; i < kRemoteCalls; ++i) b.invoke(b.device_, b.counter_, 16);

  EmulatorConfig cfg = base_config();
  cfg.trigger.consecutive_reports = 1;
  cfg.max_offloads = 2;
  cfg.manual_offload_classes = {"Counter"};
  Emulator emu(reg, cfg);
  const EmulationResult r = emu.run(b.trace());
  ASSERT_EQ(r.offloads.size(), 2u);
  EXPECT_TRUE(r.offloads[0].decision.selected.offload.empty());
  EXPECT_TRUE(r.offloads[1].decision.selected.offload.contains(
      graph::ComponentKey{b.counter_}));
  EXPECT_EQ(r.total_invocations,
            static_cast<std::uint64_t>(kLocalCalls + kRemoteCalls));
  EXPECT_EQ(r.remote_invocations, static_cast<std::uint64_t>(kRemoteCalls));
}

TEST(EmulatorTest, UnknownClassIdThrowsBeforeAnyWrite) {
  // A one-event trace naming a class id past the registry: the monitor's
  // checked registry lookup throws before its class tables are written.
  auto reg = make_test_registry();
  const ClassId known = reg->find("Pair");
  const ClassId unknown{static_cast<std::uint32_t>(reg->size() + 7)};
  struct Case {
    TraceEventType type;
    ClassId cls_a, cls_b;
  };
  for (const Case& c : {Case{TraceEventType::alloc, unknown, known},
                        Case{TraceEventType::free_obj, unknown, known},
                        Case{TraceEventType::resize, unknown, known},
                        Case{TraceEventType::method_exit, unknown, known},
                        Case{TraceEventType::invoke, unknown, known},
                        Case{TraceEventType::invoke, known, unknown},
                        Case{TraceEventType::access, unknown, known},
                        Case{TraceEventType::access, known, unknown}}) {
    Trace trace;
    TraceEvent e;
    e.type = c.type;
    e.cls_a = c.cls_a;
    e.cls_b = c.cls_b;
    e.bytes = 64;
    trace.events.push_back(e);
    Emulator emu(reg, base_config());
    EXPECT_THROW((void)emu.run(trace), VmError)
        << "event type " << static_cast<int>(c.type);
  }
}

TEST(EmulatorTest, DeterministicAcrossRuns) {
  auto reg = make_test_registry();
  const Trace t = memory_trace(reg);
  Emulator a(reg, base_config());
  Emulator b(reg, base_config());
  const auto ra = a.run(t);
  const auto rb = b.run(t);
  EXPECT_EQ(ra.emulated_time, rb.emulated_time);
  EXPECT_EQ(ra.remote_invocations, rb.remote_invocations);
  EXPECT_EQ(ra.offloads.size(), rb.offloads.size());
}

// --- decision horizon --------------------------------------------------------

TEST(EmulatorHorizonTest, MonitorStopsAtTheLastEvaluation) {
  auto reg = make_test_registry();
  {
    // memory_trace's interactions all precede or follow its run of
    // allocations and GC reports, and the one offload fires inside that run.
    const Trace trace = memory_trace(reg);
    Emulator emu(reg, base_config());
    const EmulationResult r = emu.run(trace);
    ASSERT_EQ(r.offloads.size(), 1u);
    std::size_t first_gc = 0;
    while (trace.events[first_gc].type != TraceEventType::gc) ++first_gc;
    const std::uint64_t before = interactions_in(trace, first_gc);
    EXPECT_LT(before, interactions_in(trace, trace.size()));
    EXPECT_EQ(emu.last_monitor().counters().interaction_events(), before);
  }
  {
    // trace_fraction evaluates once, right after the event at index
    // floor(size * eval_at_fraction).
    const Trace trace = compute_trace(reg);
    const EmulatorConfig cfg = compute_config();
    Emulator emu(reg, cfg);
    const EmulationResult r = emu.run(trace);
    ASSERT_EQ(r.offloads.size(), 1u);
    const auto eval_ix = static_cast<std::size_t>(
        static_cast<double>(trace.size()) * cfg.eval_at_fraction);
    EXPECT_EQ(emu.last_monitor().counters().interaction_events(),
              interactions_in(trace, eval_ix + 1));
  }
}

TEST(EmulatorHorizonTest, NoOffloadRunFeedsNoInteractionAndChangesNoResult) {
  // A max_offloads = 0 run is past the horizon from its first event: only
  // allocations, frees and resizes reach its monitor. A run whose evaluation
  // never comes feeds every event. Nothing is placed on either side, so
  // every result field must match.
  auto reg = make_test_registry();
  for (const bool memory : {true, false}) {
    const Trace trace = memory ? memory_trace(reg) : compute_trace(reg);
    EmulatorConfig never = memory ? base_config() : compute_config();
    if (memory) {
      // GC-pressure model on; a trigger that needs INT_MAX consecutive
      // low-memory reports never fires.
      never.gc_pressure_cost_ns_per_live_byte = 100.0;
      never.trigger.consecutive_reports = std::numeric_limits<int>::max();
    } else {
      never.eval_at_fraction = 2.0;  // past 1: never evaluates
    }
    EmulatorConfig none = never;
    none.max_offloads = 0;
    Emulator a(reg, none);
    Emulator b(reg, never);
    const EmulationResult ra = a.run(trace);
    expect_same_result(ra, b.run(trace));
    if (memory) {
      EXPECT_GT(ra.gc_pressure_time, 0);
    }
    const monitor::ExecutionMonitor& mon = a.last_monitor();
    EXPECT_EQ(mon.counters().interaction_events(), 0u);
    EXPECT_EQ(mon.graph().edge_count(), 0u);
    EXPECT_GT(mon.counters().objects_created, 0u);
    EXPECT_EQ(b.last_monitor().counters().interaction_events(),
              interactions_in(trace, trace.size()));
  }
}

TEST(EmulatorHorizonTest, AllocationsPastTheHorizonFollowTheirPlacedClass) {
  // The first trigger offloads Pair, and max_offloads = 1 makes that the
  // last decision. A 2 MB Pair allocated afterwards lives on the surrogate:
  // the next GC report must neither count it against the client's peak nor
  // charge GC pressure for it. Both read the placed Pair node's mem_bytes,
  // which only on_alloc keeps current.
  auto reg = make_test_registry();
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  b.invoke(b.device_, b.counter_, 16, kFlagNative);
  b.invoke(b.counter_, b.pair_, 32);
  b.alloc(ObjectId{100}, b.pair_, 960 * 1024);
  for (int i = 0; i < 3; ++i) b.gc();
  const Trace before_alloc = b.trace();
  b.alloc(ObjectId{200}, b.pair_, 2 << 20);
  b.gc();

  EmulatorConfig cfg = base_config();
  cfg.gc_pressure_cost_ns_per_live_byte = 100.0;
  Emulator emu(reg, cfg);
  const EmulationResult r = emu.run(b.trace());
  ASSERT_EQ(r.offloads.size(), 1u);
  ASSERT_TRUE(r.offloads[0].decision.selected.offload.contains(
      graph::ComponentKey{b.pair_}));
  // The peak is the pre-offload heap, device plus the first Pair.
  EXPECT_EQ(r.peak_client_live, 64 + 960 * 1024);
  // The last report's client holds only the device's 64 bytes.
  Emulator prefix(reg, cfg);
  const EmulationResult p = prefix.run(before_alloc);
  const double headroom = static_cast<double>(cfg.heap_capacity - 64);
  const auto last_charge = static_cast<SimDuration>(
      static_cast<double>(2 << 20) / headroom * 64.0 *
      cfg.gc_pressure_cost_ns_per_live_byte);
  EXPECT_EQ(r.gc_pressure_time - p.gc_pressure_time, last_charge);
}

TEST(EmulatorHorizonTest, ArrayPromotedPastTheHorizonReadsTheClient) {
  // Under the Array enhancement small int[]s fold into the int[] class
  // node, which the one offload places with Counter. A large int[]
  // allocated past the horizon becomes its own, unplaced node: the device's
  // calls into it stay local, while its calls into a small int[] still
  // cross to the surrogate.
  auto reg = make_test_registry();
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  b.alloc(ObjectId{2}, b.counter_, 680 * 1024);
  for (std::uint64_t i = 0; i < 100; ++i) {
    b.alloc(ObjectId{500 + i}, b.int_array_, 3 * 1024);
  }
  b.invoke(b.device_, b.counter_, 16, kFlagNative);
  for (int i = 0; i < 200; ++i) {
    b.invoke(b.counter_, b.int_array_, 8, 0, ObjectId{500});
  }
  for (int i = 0; i < 3; ++i) b.gc();
  const ObjectId big{900};
  b.alloc(big, b.int_array_, 8 * 1024);
  const int kBigCalls = 30, kSmallCalls = 20;
  for (int i = 0; i < kBigCalls; ++i) {
    b.invoke(b.device_, b.int_array_, 8, 0, big);
  }
  for (int i = 0; i < kSmallCalls; ++i) {
    b.invoke(b.device_, b.int_array_, 8, 0, ObjectId{501});
  }

  EmulatorConfig cfg = base_config();
  cfg.arrays_as_objects = true;
  cfg.min_array_bytes = 4096;
  Emulator emu(reg, cfg);
  const EmulationResult r = emu.run(b.trace());
  ASSERT_EQ(r.offloads.size(), 1u);
  ASSERT_TRUE(r.offloads[0].decision.selected.offload.contains(
      graph::ComponentKey{b.int_array_}));
  EXPECT_EQ(r.total_invocations,
            static_cast<std::uint64_t>(201 + kBigCalls + kSmallCalls));
  EXPECT_EQ(r.remote_invocations, static_cast<std::uint64_t>(kSmallCalls));
}

// --- block summaries past the horizon ---------------------------------------

// Three whole blocks and a tail. Each step: Device calls Counter, Counter
// runs, calls Pair (managed static every fourth time), reads and writes Pair,
// reads Calc's static data, calls Util's stateless native and Device's
// native, and Device runs. Pair objects come and go, Counter objects pile
// up, a Pair is resized now and then, and a GC report comes every 40 steps.
Trace block_trace(const std::shared_ptr<vm::ClassRegistry>& reg) {
  const ClassId util = reg->find("Util");
  const ClassId calc = reg->find("Calc");
  TraceBuilder b(*reg);
  b.alloc(ObjectId{1}, b.device_, 64);
  for (std::uint64_t s = 0; b.trace().size() < 3 * kBlockEvents + 150; ++s) {
    TraceEvent enter;
    enter.type = TraceEventType::method_enter;
    enter.cls_a = b.counter_;
    b.raw(enter);
    b.invoke(b.device_, b.counter_, 16 + 8 * (s % 3));
    b.self_time(b.counter_, sim_us(100 + static_cast<SimDuration>(s % 7)));
    b.invoke(b.counter_, b.pair_, 32, s % 4 == 0 ? kFlagStatic : 0);
    TraceEvent access;
    access.type = TraceEventType::access;
    access.cls_a = b.counter_;
    access.cls_b = b.pair_;
    access.flags = s % 2 == 0 ? kFlagWrite : 0;
    access.bytes = 8;
    b.raw(access);
    access.cls_b = calc;
    access.flags = kFlagStatic;
    b.raw(access);
    b.invoke(b.counter_, util, 16, kFlagNative | kFlagStatic | kFlagStateless);
    b.invoke(b.counter_, b.device_, 64, kFlagNative);
    b.self_time(b.device_, sim_us(50));
    if (s % 5 == 0) b.alloc(ObjectId{1000 + s}, b.pair_, 256);
    if (s % 5 == 4) b.free_obj(ObjectId{996 + s}, b.pair_, 256);
    if (s % 7 == 0) b.alloc(ObjectId{50000 + s}, b.counter_, 128);
    if (s % 11 == 0) {
      TraceEvent resize;
      resize.type = TraceEventType::resize;
      resize.cls_a = b.pair_;
      resize.obj_a = ObjectId{1000 + s - s % 5};
      resize.aux1 = 64;
      b.raw(resize);
    }
    if (s % 40 == 39) b.gc();
  }
  return b.trace();
}

// cfg on the per-event path: under the Array enhancement, with no array
// large enough to be its own component, the replay keeps every component a
// class node, as under class granularity, but charges event by event.
EmulationResult per_event_run(const std::shared_ptr<vm::ClassRegistry>& reg,
                              EmulatorConfig cfg, const Trace& trace) {
  cfg.arrays_as_objects = true;
  cfg.min_array_bytes = std::numeric_limits<std::int64_t>::max();
  Emulator emu(reg, cfg);
  return emu.run(trace);
}

TEST(EmulatorBlockTest, SummaryPathMatchesPerEventAtFractionHorizons) {
  // The evaluation follows event h, so the replay past it starts one event
  // short of a block boundary, on one, one past it, on the second, and at
  // the trace's end.
  auto reg = make_test_registry();
  const Trace trace = block_trace(reg);
  const std::size_t n = trace.size();
  ASSERT_GT(n, 3 * kBlockEvents);
  constexpr std::size_t kB = kBlockEvents;
  for (const std::size_t h : {kB - 2, kB - 1, kB, 2 * kB - 1, n - 1}) {
    for (const bool manual : {false, true}) {
      for (const bool native : {false, true}) {
        EmulatorConfig cfg = compute_config();
        cfg.eval_at_fraction =
            (static_cast<double>(h) + 0.5) / static_cast<double>(n);
        cfg.stateless_natives_local = native;
        if (manual) cfg.manual_offload_classes = {"Counter"};
        SCOPED_TRACE(::testing::Message()
                     << "horizon " << h << (manual ? " manual" : "")
                     << (native ? " native" : ""));
        Emulator emu(reg, cfg);
        const EmulationResult summary = emu.run(trace);
        ASSERT_EQ(summary.offloads.size() + summary.declined.size(), 1u);
        EXPECT_EQ(emu.last_monitor().counters().interaction_events(),
                  interactions_in(trace, h + 1));
        if (manual && h + 1 < n) {
          EXPECT_GT(summary.remote_invocations, 0u);
          EXPECT_GT(summary.remote_accesses, 0u);
          EXPECT_LT(summary.emulated_time - summary.comm_time -
                        summary.migration_time,
                    summary.base_time);
        }
        expect_same_result(summary, per_event_run(reg, cfg, trace));
      }
    }
  }
}

TEST(EmulatorBlockTest, SummaryPathMatchesPerEventPastGcHorizons) {
  // Every GC report is a low-memory one, so the run's horizon is its
  // max_offloads-th report: the trace's start, then inside blocks 0, 1 and
  // 2. Past it the GC reports replay in order between the summaries, with
  // the GC-pressure model on and Counter objects offloaded.
  auto reg = make_test_registry();
  const Trace trace = block_trace(reg);
  std::vector<std::size_t> gcs;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.events[i].type == TraceEventType::gc) gcs.push_back(i);
  }
  for (const std::size_t offloads : {0u, 2u, 12u, 25u}) {
    EmulatorConfig cfg = base_config();
    cfg.trigger.low_free_threshold = 2.0;
    cfg.trigger.consecutive_reports = 1;
    cfg.max_offloads = offloads;
    cfg.manual_offload_classes = {"Counter"};
    cfg.gc_pressure_cost_ns_per_live_byte = 100.0;
    SCOPED_TRACE(::testing::Message() << "max_offloads " << offloads);
    Emulator emu(reg, cfg);
    const EmulationResult summary = emu.run(trace);
    ASSERT_EQ(summary.offloads.size(), offloads);
    if (offloads > 0) {
      const std::size_t horizon = gcs.at(offloads - 1);
      EXPECT_EQ(horizon / kBlockEvents, offloads / 12);
      EXPECT_NE(horizon % kBlockEvents, kBlockEvents - 1);
      EXPECT_EQ(emu.last_monitor().counters().interaction_events(),
                interactions_in(trace, horizon + 1));
      EXPECT_GT(summary.remote_invocations, 0u);
    }
    EXPECT_GT(summary.gc_pressure_time, 0);
    expect_same_result(summary, per_event_run(reg, cfg, trace));
  }
}

// --- configuration checks ----------------------------------------------------

// Constructing an emulator with `cfg` throws std::invalid_argument naming
// `field`.
void expect_rejected(const EmulatorConfig& cfg, const std::string& field) {
  try {
    const Emulator emu(make_test_registry(), cfg);
    ADD_FAILURE() << field << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EmulatorConfigTest, EvalAtFractionMustBeANonNegativeNumber) {
  for (const double v : {-0.25, -kInf, kNaN}) {
    EmulatorConfig cfg = compute_config();
    cfg.eval_at_fraction = v;
    expect_rejected(cfg, "eval_at_fraction");
  }
  // Past 1 stays legal and never evaluates, however large.
  auto reg = make_test_registry();
  for (const double v : {1.5, 1e300, kInf}) {
    EmulatorConfig cfg = compute_config();
    cfg.eval_at_fraction = v;
    Emulator emu(reg, cfg);
    const EmulationResult r = emu.run(compute_trace(reg));
    EXPECT_TRUE(r.offloads.empty() && r.declined.empty()) << v;
  }
}

TEST(EmulatorConfigTest, SurrogateSpeedupMustBePositive) {
  for (const double v : {0.0, -3.5, kNaN}) {
    EmulatorConfig cfg = compute_config();
    cfg.surrogate_speedup = v;
    expect_rejected(cfg, "surrogate_speedup");
  }
}

TEST(EmulatorConfigTest, HeapCapacityMustBePositive) {
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-1}}) {
    EmulatorConfig cfg = base_config();
    cfg.heap_capacity = v;
    expect_rejected(cfg, "heap_capacity");
  }
}

TEST(EmulatorConfigTest, MinFreeFractionMustLieInTheUnitInterval) {
  for (const double v : {-0.01, 1.01, kNaN}) {
    EmulatorConfig cfg = base_config();
    cfg.min_free_fraction = v;
    expect_rejected(cfg, "min_free_fraction");
  }
  for (const double v : {0.0, 1.0}) {
    EmulatorConfig cfg = base_config();
    cfg.min_free_fraction = v;
    EXPECT_NO_THROW(Emulator(make_test_registry(), cfg)) << v;
  }
}

TEST(EmulatorConfigTest, GcPressureCostMustBeANonNegativeNumber) {
  for (const double v : {-100.0, kNaN}) {
    EmulatorConfig cfg = base_config();
    cfg.gc_pressure_cost_ns_per_live_byte = v;
    expect_rejected(cfg, "gc_pressure_cost_ns_per_live_byte");
  }
}

}  // namespace
}  // namespace aide::emul
