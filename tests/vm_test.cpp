// Tests for the MiniVM execution engine: objects, fields, arrays, statics,
// method dispatch, the context API's error behaviour, CPU-work accounting,
// and the Figure 9 self-time attribution.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "monitor/monitor.hpp"
#include "tests/test_util.hpp"
#include "vm/hooks.hpp"
#include "vm/vm.hpp"

namespace aide::vm {
namespace {

using aide::test::make_test_registry;

class VmTest : public ::testing::Test {
 protected:
  VmTest() : registry_(make_test_registry()), vm_(cfg(), registry_, clock_) {}

  static VmConfig cfg() {
    VmConfig c;
    c.node = NodeId{1};
    c.name = "test-vm";
    c.heap_capacity = 1 << 20;
    return c;
  }

  std::shared_ptr<ClassRegistry> registry_;
  SimClock clock_;
  Vm vm_;
};

TEST_F(VmTest, NewObjectHasDefaultFields) {
  const ObjectRef pair = vm_.new_object("Pair");
  EXPECT_TRUE(vm_.get_field(pair, FieldId{0}).is_nil());
  EXPECT_TRUE(vm_.get_field(pair, FieldId{1}).is_nil());
}

TEST_F(VmTest, FieldRoundTripByIdAndName) {
  const ObjectRef pair = vm_.new_object("Pair");
  vm_.put_field(pair, FieldId{0}, Value{42});
  vm_.put_field(pair, "b", Value{"hi"});
  EXPECT_EQ(vm_.get_field(pair, "a").as_int(), 42);
  EXPECT_EQ(vm_.get_field(pair, FieldId{1}).as_str(), "hi");
}

TEST_F(VmTest, UnknownFieldThrows) {
  const ObjectRef pair = vm_.new_object("Pair");
  EXPECT_THROW(vm_.get_field(pair, "nope"), VmError);
  EXPECT_THROW(vm_.get_field(pair, FieldId{9}), VmError);
}

TEST_F(VmTest, NullFieldAccessThrows) {
  EXPECT_THROW(vm_.get_field(kNullRef, FieldId{0}), VmError);
  EXPECT_THROW(vm_.put_field(kNullRef, FieldId{0}, Value{1}), VmError);
}

TEST_F(VmTest, MethodInvocation) {
  const ObjectRef counter = vm_.new_object("Counter");
  EXPECT_EQ(vm_.call(counter, "inc").as_int(), 1);
  EXPECT_EQ(vm_.call(counter, "inc").as_int(), 2);
  EXPECT_EQ(vm_.call(counter, "get").as_int(), 2);
}

TEST_F(VmTest, NestedAndRecursiveInvocation) {
  const ObjectRef counter = vm_.new_object("Counter");
  EXPECT_EQ(vm_.call(counter, "addMany", {Value{10}}).as_int(), 10);
  EXPECT_EQ(vm_.stack_depth(), 0u);
}

TEST_F(VmTest, UnknownMethodThrows) {
  const ObjectRef counter = vm_.new_object("Counter");
  EXPECT_THROW(vm_.call(counter, "nope"), VmError);
}

TEST_F(VmTest, StackOverflowDetected) {
  const ObjectRef counter = vm_.new_object("Counter");
  EXPECT_THROW(vm_.call(counter, "addMany", {Value{100000}}), VmError);
  // Frames are unwound even after the failure.
  EXPECT_EQ(vm_.stack_depth(), 0u);
}

TEST_F(VmTest, StaticMethodAndData) {
  EXPECT_EQ(vm_.call_static("Calc", "add", {Value{2}, Value{3}}).as_int(), 5);
  vm_.call_static("Calc", "store", {Value{99}});
  EXPECT_EQ(vm_.call_static("Calc", "recall").as_int(), 99);
  EXPECT_EQ(vm_.get_static("Calc", "memory").as_int(), 99);
}

TEST_F(VmTest, StaticInstanceMismatchThrows) {
  // Instance method invoked as static is rejected...
  const ClassId counter_cls = vm_.find_class("Counter");
  const MethodId inc = vm_.registry().get(counter_cls).find_method("inc");
  EXPECT_THROW(vm_.invoke_static(counter_cls, inc, {}), VmError);

  // ...and a static method dispatched on an instance is rejected too. Calc
  // has no instances, so dispatch on a raw object of that class id.
  const ClassId calc = vm_.find_class("Calc");
  const MethodId add = vm_.registry().get(calc).find_method("add");
  vm_.install_stub(ObjectId{0xF00}, calc, ObjectKind::plain);
  EXPECT_THROW(vm_.invoke(ObjectRef{ObjectId{0xF00}}, add, {}), VmError);
}

TEST_F(VmTest, NativeMethodRunsOnClient) {
  const ObjectRef device = vm_.new_object("Device");
  EXPECT_EQ(vm_.call(device, "beep").as_int(), 1);
  EXPECT_EQ(vm_.call(device, "beep").as_int(), 2);
}

TEST_F(VmTest, StatelessNativeStatic) {
  EXPECT_EQ(vm_.call_static("Util", "twice", {Value{21}}).as_int(), 42);
}

TEST_F(VmTest, IntArrayOperations) {
  const ObjectRef arr = vm_.new_int_array(10);
  EXPECT_EQ(vm_.array_length(arr), 10);
  vm_.array_put(arr, 3, Value{77});
  EXPECT_EQ(vm_.array_get(arr, 3).as_int(), 77);
  EXPECT_EQ(vm_.array_get(arr, 0).as_int(), 0);
}

TEST_F(VmTest, ArrayBoundsChecked) {
  const ObjectRef arr = vm_.new_int_array(4);
  EXPECT_THROW(vm_.array_get(arr, 4), VmError);
  EXPECT_THROW(vm_.array_get(arr, -1), VmError);
  EXPECT_THROW(vm_.array_put(arr, 100, Value{1}), VmError);
}

TEST_F(VmTest, CharArrayBulkOps) {
  const ObjectRef arr = vm_.new_char_array(16);
  vm_.chars_write(arr, 4, "hello");
  EXPECT_EQ(vm_.chars_read(arr, 4, 5), "hello");
  EXPECT_EQ(vm_.chars_read(arr, 0, 1), std::string(1, '\0'));
  EXPECT_THROW(vm_.chars_read(arr, 10, 10), VmError);
  EXPECT_THROW(vm_.chars_write(arr, 14, "toolong"), VmError);
}

TEST_F(VmTest, CharArrayFromInitialContent) {
  const ObjectRef arr = vm_.new_char_array("seed");
  EXPECT_EQ(vm_.array_length(arr), 4);
  EXPECT_EQ(vm_.chars_read(arr, 0, 4), "seed");
  EXPECT_EQ(vm_.array_get(arr, 0).as_int(), 's');
}

TEST_F(VmTest, ArrayOpOnPlainObjectThrows) {
  const ObjectRef pair = vm_.new_object("Pair");
  EXPECT_THROW(vm_.array_get(pair, 0), VmError);
  EXPECT_THROW(vm_.chars_read(pair, 0, 1), VmError);
}

TEST_F(VmTest, RefArrayActsAsObjectArray) {
  const ObjectRef arr = vm_.new_ref_array(5);
  const ObjectRef pair = vm_.new_object("Pair");
  vm_.put_field(arr, FieldId{2}, Value{pair});
  EXPECT_EQ(vm_.get_field(arr, FieldId{2}).as_ref(), pair);
  EXPECT_TRUE(vm_.get_field(arr, FieldId{0}).is_nil());
}

TEST_F(VmTest, WorkAdvancesClockScaledBySpeed) {
  vm_.work(sim_us(100));
  EXPECT_EQ(clock_.now(), sim_us(100));

  SimClock fast_clock;
  VmConfig fast_cfg = cfg();
  fast_cfg.cpu_speed = 2.0;
  Vm fast(fast_cfg, registry_, fast_clock);
  fast.work(sim_us(100));
  EXPECT_EQ(fast_clock.now(), sim_us(50));
}

TEST_F(VmTest, StatsCountEvents) {
  const ObjectRef counter = vm_.new_object("Counter");
  vm_.call(counter, "inc");
  EXPECT_GE(vm_.stats().allocations, 1u);
  EXPECT_GE(vm_.stats().invocations, 1u);
  EXPECT_GE(vm_.stats().field_accesses, 2u);
  EXPECT_EQ(vm_.stats().remote_invocations, 0u);
}

TEST_F(VmTest, HeapAccountsStringFieldGrowth) {
  const ObjectRef pair = vm_.new_object("Pair");
  const auto before = vm_.heap().used();
  vm_.put_field(pair, FieldId{0}, Value{std::string(1000, 'x')});
  EXPECT_EQ(vm_.heap().used(), before + 1000);
  vm_.put_field(pair, FieldId{0}, Value{std::string(400, 'y')});
  EXPECT_EQ(vm_.heap().used(), before + 400);
  vm_.put_field(pair, FieldId{0}, Value{1});
  EXPECT_EQ(vm_.heap().used(), before);
}

TEST_F(VmTest, ClassLookupErrors) {
  EXPECT_THROW((void)vm_.find_class("NoSuchClass"), VmError);
  EXPECT_THROW(vm_.new_object("NoSuchClass"), VmError);
}

TEST_F(VmTest, ObjectIdsCarryNodeTag) {
  const ObjectRef a = vm_.new_object("Pair");
  EXPECT_EQ(a.id.value() >> 48, 1u);
}

// Figure 9: self-time excludes nested calls.
class TimingHooks : public VmHooks {
 public:
  void on_method_exit(NodeId, ClassId cls, ObjectId, MethodId,
                      SimDuration self_time, SimTime) override {
    total_by_class_[cls] += self_time;
  }
  std::unordered_map<ClassId, SimDuration> total_by_class_;
};

TEST_F(VmTest, SelfTimeAttributionExcludesNestedCalls) {
  // a::outer charges 20us itself then calls b::inner which charges 100us —
  // the paper's Figure 9 example (0.02s vs 0.10s attribution).
  auto reg = std::make_shared<ClassRegistry>();
  ClassId b_cls;
  {
    ClassBuilder b("B");
    b.method(
        "inner",
        [](Vm& ctx, ObjectRef, auto) -> Value {
          ctx.work(sim_us(100));
          return Value{};
        },
        /*base_cost=*/0);
    b_cls = reg->register_class(b.build());
  }
  ClassId a_cls;
  {
    ClassBuilder a("A");
    a.method(
        "outer",
        [](Vm& ctx, ObjectRef, auto args) -> Value {
          ctx.work(sim_us(20));
          return ctx.call(aide::test::arg(args, 0).as_ref(), "inner");
        },
        /*base_cost=*/0);
    a_cls = reg->register_class(a.build());
  }

  SimClock clock;
  VmConfig c = cfg();
  Vm vm(c, reg, clock);
  TimingHooks hooks;
  vm.add_hooks(&hooks);

  const ObjectRef a_obj = vm.new_object(a_cls);
  const ObjectRef b_obj = vm.new_object(b_cls);
  vm.call(a_obj, "outer", {Value{b_obj}});

  EXPECT_EQ(hooks.total_by_class_[a_cls], sim_us(20));
  EXPECT_EQ(hooks.total_by_class_[b_cls], sim_us(100));
  EXPECT_EQ(clock.now(), sim_us(120));
}

TEST_F(VmTest, HooksCanBeRemoved) {
  TimingHooks hooks;
  vm_.add_hooks(&hooks);
  const ObjectRef counter = vm_.new_object("Counter");
  vm_.call(counter, "inc");
  EXPECT_FALSE(hooks.total_by_class_.empty());
  hooks.total_by_class_.clear();
  vm_.remove_hooks(&hooks);
  vm_.call(counter, "inc");
  EXPECT_TRUE(hooks.total_by_class_.empty());
}

// Counts every callback it hears and, on each interaction, appends its tag
// and the slot monitor's event count at that moment to a shared log.
class LoggingHooks : public VmHooks {
 public:
  LoggingHooks(char tag, std::vector<std::string>& log,
               const monitor::ExecutionMonitor* slot = nullptr)
      : tag_(tag), log_(log), slot_(slot) {}

  void on_invoke(const InvokeEvent&) override { note("invoke"); }
  void on_access(const AccessEvent&) override { note("access"); }
  void on_method_enter(NodeId, ClassId, ObjectId, MethodId, SimTime) override {
    ++calls;
  }
  void on_method_exit(NodeId, ClassId, ObjectId, MethodId, SimDuration,
                      SimTime) override {
    ++calls;
  }
  void on_alloc(NodeId, ObjectId, ClassId, std::int64_t, SimTime) override {
    ++calls;
  }
  void on_resize(NodeId, ObjectId, ClassId, std::int64_t) override { ++calls; }
  void on_free(NodeId, ObjectId, ClassId, std::int64_t, SimTime) override {
    ++calls;
  }
  void on_gc(NodeId, const GcReport&) override { ++gcs; }

  int calls = 0;
  int gcs = 0;

 private:
  void note(const char* what) {
    ++calls;
    std::string entry = std::string(1, tag_) + ":" + what;
    if (slot_ != nullptr) {
      entry += "@" + std::to_string(slot_->counters().interaction_events());
    }
    log_.push_back(std::move(entry));
  }

  char tag_;
  std::vector<std::string>& log_;
  const monitor::ExecutionMonitor* slot_;
};

// Runs one op of every instrumented kind on `vm`: field, array, cached and
// uncached calls, a static, an allocation and a collection.
void exercise(Vm& vm) {
  const ObjectRef counter = vm.new_object("Counter");
  vm.add_root(counter);
  const ObjectRef arr = vm.new_int_array(4);
  vm.add_root(arr);
  vm.put_field(counter, FieldId{0}, Value{std::int64_t{1}});
  (void)vm.get_field(counter, FieldId{0});
  vm.array_put(arr, 1, Value{std::int64_t{2}});
  (void)vm.array_get(arr, 1);
  const CallSite inc{"inc"};
  (void)vm.call(counter, inc);
  (void)vm.call(counter, "get");
  vm.put_static("Calc", "memory", Value{std::int64_t{3}});
  (void)vm.collect_garbage();
}

TEST_F(VmTest, GcOnlySubscriberHearsNoOpEvents) {
  std::vector<std::string> log;
  LoggingHooks gc_only('g', log);
  vm_.add_hooks(&gc_only, kGcEvents);
  exercise(vm_);
  EXPECT_EQ(gc_only.gcs, 1);
  EXPECT_EQ(gc_only.calls, 0);
  EXPECT_TRUE(log.empty());

  // The same run with every kind subscribed hears all of them.
  LoggingHooks all('a', log);
  vm_.add_hooks(&all);
  exercise(vm_);
  EXPECT_EQ(all.gcs, 1);
  EXPECT_GT(all.calls, 0);
  EXPECT_EQ(gc_only.calls, 0);
}

TEST_F(VmTest, ObserversOfOneKindHearInRegistrationOrderAfterTheSlot) {
  monitor::ExecutionMonitor monitor(registry_);
  std::vector<std::string> log;
  LoggingHooks first('1', log, &monitor);
  LoggingHooks invokes_only('i', log, &monitor);
  LoggingHooks second('2', log, &monitor);
  vm_.add_hooks(&first);
  vm_.add_hooks(&invokes_only, kInvokeEvents);
  vm_.add_hooks(&second, kAccessEvents);
  vm_.add_hooks(&monitor);  // registered last, heard first
  const ObjectRef counter = vm_.new_object("Counter");
  const ObjectRef pair = vm_.new_object("Pair");
  vm_.put_field(pair, FieldId{0}, Value{counter});
  vm_.call(counter, "get");
  // get() reads its field before the invoke event. Each observer sees the
  // monitor's count already including the event.
  EXPECT_EQ(log, (std::vector<std::string>{"1:access@1", "2:access@1",
                                           "1:access@2", "2:access@2",
                                           "1:invoke@3", "i:invoke@3"}));
}

TEST_F(VmTest, RemoveHooksEmptiesTheMonitorSlot) {
  monitor::ExecutionMonitor monitor(registry_);
  vm_.add_hooks(&monitor);
  EXPECT_EQ(vm_.monitor_slot(), &monitor);
  exercise(vm_);
  const monitor::MonitorCounters before = monitor.counters();
  EXPECT_GT(before.access_events, 0u);
  EXPECT_GT(before.invoke_events, 0u);

  vm_.remove_hooks(&monitor);
  EXPECT_EQ(vm_.monitor_slot(), nullptr);
  exercise(vm_);
  EXPECT_EQ(monitor.counters().access_events, before.access_events);
  EXPECT_EQ(monitor.counters().invoke_events, before.invoke_events);
  EXPECT_EQ(monitor.counters().objects_created, before.objects_created);
}

TEST_F(VmTest, SecondMonitorObservesBehindTheSlot) {
  monitor::ExecutionMonitor slot(registry_);
  monitor::ExecutionMonitor observer(registry_);
  vm_.add_hooks(&slot);
  vm_.add_hooks(&observer);
  EXPECT_EQ(vm_.monitor_slot(), &slot);
  exercise(vm_);
  EXPECT_EQ(observer.counters().interaction_events(),
            slot.counters().interaction_events());
  EXPECT_EQ(observer.counters().objects_created,
            slot.counters().objects_created);
  EXPECT_GT(slot.counters().interaction_events(), 0u);
}

TEST_F(VmTest, RemoteInvokeWithoutPeerThrows) {
  // Install a stub for a fake remote object; operations must fail cleanly
  // when no peer is attached.
  vm_.install_stub(ObjectId{0xABC}, vm_.find_class("Counter"),
                   ObjectKind::plain);
  EXPECT_THROW(vm_.call(ObjectRef{ObjectId{0xABC}}, "inc"), VmError);
  EXPECT_THROW(vm_.get_field(ObjectRef{ObjectId{0xABC}}, FieldId{0}), VmError);
}

}  // namespace
}  // namespace aide::vm
