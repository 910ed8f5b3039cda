// Tests for the trace-driven emulator: time stretching for remote
// interactions, CPU re-scaling under placement, trigger modes, the native and
// array enhancements, repeated repartitioning, the emulated heap model, and
// traces naming unknown class ids.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "emul/emulator.hpp"
#include "tests/test_util.hpp"

namespace aide::emul {
namespace {

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
  cfg.charge_migration = true;
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

}  // namespace
}  // namespace aide::emul
