// Tests for the trace model: recorder fidelity against live VM execution,
// the column store's value view, the CSV round-trip, and the CSV loader's
// rejection of out-of-range fields and malformed rows.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "emul/recorder.hpp"
#include "emul/trace.hpp"
#include "tests/test_util.hpp"

namespace aide::emul {
namespace {

using aide::test::make_test_registry;
using vm::ObjectRef;
using vm::Value;
using vm::Vm;
using vm::VmConfig;

TEST(RecorderTest, CapturesAllocInvokeAccessExit) {
  auto reg = make_test_registry();
  SimClock clock;
  VmConfig cfg;
  cfg.heap_capacity = 1 << 20;
  Vm vm(cfg, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);

  const ObjectRef counter = vm.new_object("Counter");
  vm.call(counter, "inc");

  const Trace& t = rec.trace();
  ASSERT_FALSE(t.empty());

  int allocs = 0, invokes = 0, accesses = 0, enters = 0, exits = 0;
  for (const auto& e : t.events) {
    switch (e.type) {
      case TraceEventType::alloc: ++allocs; break;
      case TraceEventType::invoke: ++invokes; break;
      case TraceEventType::access: ++accesses; break;
      case TraceEventType::method_enter: ++enters; break;
      case TraceEventType::method_exit: ++exits; break;
      default: break;
    }
  }
  EXPECT_EQ(allocs, 1);
  EXPECT_EQ(invokes, 1);
  EXPECT_EQ(accesses, 2);  // get + put of the counter field
  EXPECT_EQ(enters, exits);
  EXPECT_EQ(enters, 1);
}

TEST(RecorderTest, FlagsEncodeMethodKind) {
  auto reg = make_test_registry();
  SimClock clock;
  VmConfig cfg;
  Vm vm(cfg, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);

  const ObjectRef device = vm.new_object("Device");
  vm.call(device, "beep");                         // native
  vm.call_static("Util", "twice", {Value{1}});     // native static stateless
  vm.call_static("Calc", "add", {Value{1}, Value{2}});  // managed static

  std::vector<TraceEvent> invokes;
  for (const auto& e : rec.trace().events) {
    if (e.type == TraceEventType::invoke) invokes.push_back(e);
  }
  ASSERT_EQ(invokes.size(), 3u);
  EXPECT_TRUE(invokes[0].flags & kFlagNative);
  EXPECT_FALSE(invokes[0].flags & kFlagStatic);
  EXPECT_TRUE(invokes[1].flags & kFlagNative);
  EXPECT_TRUE(invokes[1].flags & kFlagStatic);
  EXPECT_TRUE(invokes[1].flags & kFlagStateless);
  EXPECT_FALSE(invokes[2].flags & kFlagNative);
  EXPECT_TRUE(invokes[2].flags & kFlagStatic);
}

TEST(RecorderTest, GcEventsCarryHeapFigures) {
  auto reg = make_test_registry();
  SimClock clock;
  VmConfig cfg;
  cfg.heap_capacity = 1 << 20;
  Vm vm(cfg, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);

  vm.new_object("Pair");
  vm.clear_driver_roots();
  vm.collect_garbage();

  const auto& events = rec.trace().events;
  auto it = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.type == TraceEventType::gc;
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->aux1, 1 << 20);  // capacity
  EXPECT_GT(it->aux2, 0);        // freed the pair
}

TEST(RecorderTest, SelfTimeRecordedInExit) {
  auto reg = make_test_registry();
  SimClock clock;
  VmConfig cfg;
  Vm vm(cfg, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);
  const ObjectRef counter = vm.new_object("Counter");
  vm.call(counter, "busy", {Value{500}});

  for (const auto& e : rec.trace().events) {
    if (e.type == TraceEventType::method_exit) {
      EXPECT_GE(e.bytes, sim_us(500));
      return;
    }
  }
  FAIL() << "no method_exit recorded";
}

TEST(RecorderTest, TakeAndClear) {
  auto reg = make_test_registry();
  SimClock clock;
  Vm vm(VmConfig{}, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);
  vm.new_object("Pair");
  const Trace t = rec.take();
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(rec.trace().empty());
}

TEST(TraceCsvTest, RoundTripPreservesEvents) {
  Trace t;
  TraceEvent a;
  a.type = TraceEventType::invoke;
  a.flags = kFlagNative | kFlagStatic;
  a.t = 123456789;
  a.cls_a = ClassId{3};
  a.cls_b = ClassId{9};
  a.obj_a = ObjectId{0xFFFF000011ULL};
  a.obj_b = ObjectId{7};
  a.method = MethodId{2};
  a.bytes = -5;
  a.aux1 = 42;
  a.aux2 = -42;
  t.events.push_back(a);
  TraceEvent b;
  b.type = TraceEventType::gc;
  b.t = 999;
  b.bytes = 1000;
  b.aux1 = 2000;
  b.aux2 = 300;
  t.events.push_back(b);

  std::stringstream ss;
  t.save_csv(ss);
  const Trace got = Trace::load_csv(ss);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.events[0].type, a.type);
  EXPECT_EQ(got.events[0].flags, a.flags);
  EXPECT_EQ(got.events[0].t, a.t);
  EXPECT_EQ(got.events[0].cls_a, a.cls_a);
  EXPECT_EQ(got.events[0].cls_b, a.cls_b);
  EXPECT_EQ(got.events[0].obj_a, a.obj_a);
  EXPECT_EQ(got.events[0].obj_b, a.obj_b);
  EXPECT_EQ(got.events[0].method, a.method);
  EXPECT_EQ(got.events[0].bytes, a.bytes);
  EXPECT_EQ(got.events[0].aux1, a.aux1);
  EXPECT_EQ(got.events[0].aux2, a.aux2);
  EXPECT_EQ(got.events[1].type, b.type);
  EXPECT_EQ(got.events[1].bytes, 1000);
}

TEST(TraceCsvTest, EmptyTrace) {
  Trace t;
  std::stringstream ss;
  t.save_csv(ss);
  const Trace got = Trace::load_csv(ss);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(got.duration(), 0);
}

TEST(TraceCsvTest, RecordedTraceRoundTrips) {
  auto reg = make_test_registry();
  SimClock clock;
  Vm vm(VmConfig{}, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);
  const ObjectRef counter = vm.new_object("Counter");
  vm.call(counter, "addMany", {Value{5}});

  std::stringstream ss;
  rec.trace().save_csv(ss);
  const Trace got = Trace::load_csv(ss);
  ASSERT_EQ(got.size(), rec.trace().size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.events[i].type, rec.trace().events[i].type);
    EXPECT_EQ(got.events[i].bytes, rec.trace().events[i].bytes);
    EXPECT_EQ(got.events[i].obj_a, rec.trace().events[i].obj_a);
  }
}

// A one-row CSV trace: the header, then `row`.
Trace load_row(const std::string& row) {
  std::stringstream ss(
      "type,flags,t,cls_a,cls_b,obj_a,obj_b,method,bytes,aux1,aux2\n" + row +
      "\n");
  return Trace::load_csv(ss);
}

// One valid invoke row with column `col` replaced by `value`.
Trace load_with_field(std::size_t col, const std::string& value) {
  std::vector<std::string> fields = {"3", "1", "10", "2", "4",
                                     "5", "6", "7", "8", "0", "0"};
  fields[col] = value;
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    row += (i == 0 ? "" : ",") + fields[i];
  }
  return load_row(row);
}

void expect_bad_field(std::size_t col, const std::string& value) {
  try {
    (void)load_with_field(col, value);
    ADD_FAILURE() << "column " << col << " accepted " << value;
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trace csv: bad field");
  }
}

TEST(TraceCsvTest, ValidRowLoads) {
  const Trace t = load_with_field(0, "3");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events[0].type, TraceEventType::invoke);
  EXPECT_EQ(t.events[0].method, MethodId{7});
}

TEST(TraceCsvTest, RejectsUnknownEventType) {
  EXPECT_EQ(load_with_field(0, "7").events[0].type, TraceEventType::gc);
  expect_bad_field(0, "8");
}

TEST(TraceCsvTest, RejectsFlagsWiderThanAByte) {
  EXPECT_EQ(load_with_field(1, "255").events[0].flags, 255);
  expect_bad_field(1, "256");
}

TEST(TraceCsvTest, RejectsSourceClassIdWiderThan32Bits) {
  EXPECT_EQ(load_with_field(3, "4294967295").events[0].cls_a,
            ClassId{0xFFFFFFFFu});
  expect_bad_field(3, "4294967296");
}

TEST(TraceCsvTest, RejectsTargetClassIdWiderThan32Bits) {
  expect_bad_field(4, "4294967296");
}

TEST(TraceCsvTest, RejectsMethodIdWiderThan32Bits) {
  EXPECT_EQ(load_with_field(7, "4294967295").events[0].method,
            MethodId{0xFFFFFFFFu});
  expect_bad_field(7, "4294967296");
}

// A row is eleven comma-separated fields and nothing else. Read leniently,
// the space-separated row loads with its fields shifted (flags=0, t=5): each
// separator skip swallows the first digit of the next field.
TEST(TraceCsvTest, RejectsMalformedRows) {
  for (const char* row : {"3;1;10;2;4;5;6;7;8;0;0", "3,1,10,2,4,5,6,7,8,0,0,9",
                          "3 10 25 12 14 15 16 17 18 10 20"}) {
    try {
      (void)load_row(row);
      ADD_FAILURE() << "accepted " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trace csv: bad field") << row;
    }
  }
}

// One event of each type, every field distinct. Aux sits on types that never
// record one (alloc, invoke, method_enter) as well as on resize and gc, only
// aux2 on the invoke, and zero-aux events lie between aux-carrying ones.
std::vector<TraceEvent> every_event_type() {
  constexpr std::int64_t kAux[8][2] = {{501, 601}, {0, 0},     {-503, 0},
                                       {0, 604},   {0, 0},     {506, 606},
                                       {0, 0},     {507, 607}};
  std::vector<TraceEvent> events;
  for (std::uint32_t k = 0; k < 8; ++k) {
    TraceEvent e;
    e.type = static_cast<TraceEventType>(k);
    e.flags = static_cast<std::uint8_t>(0x10 + k);
    e.method = MethodId{100 + k};
    e.t = 1000 + 10 * k;
    e.cls_a = ClassId{200 + k};
    e.cls_b = ClassId{300 + k};
    e.obj_a = ObjectId{0x100000000ULL + k};
    e.obj_b = ObjectId{0x200000000ULL + k};
    e.bytes = -400 - static_cast<std::int64_t>(k);
    e.aux1 = kAux[k][0];
    e.aux2 = kAux[k][1];
    events.push_back(e);
  }
  return events;
}

TEST(TraceTest, ColumnStoreKeepsEveryField) {
  const std::vector<TraceEvent> want = every_event_type();
  Trace t;
  for (const TraceEvent& e : want) t.events.push_back(e);

  ASSERT_EQ(t.size(), want.size());
  EXPECT_EQ(t.events.hot().size(), want.size());
  EXPECT_EQ(t.events.objects().size(), want.size());
  EXPECT_EQ(t.events.times().size(), want.size());
  EXPECT_EQ(t.events.aux().size(), 5u);  // the zero-aux events store none
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(t.events[i] == want[i]) << "operator[] " << i;
    EXPECT_TRUE(*(t.events.begin() + static_cast<std::ptrdiff_t>(i)) ==
                want[i])
        << "begin() + " << i;
  }
  std::size_t walked = 0;
  for (const TraceEvent& e : t.events) {
    ASSERT_LT(walked, want.size());
    EXPECT_TRUE(e == want[walked]) << "walk " << walked;
    ++walked;
  }
  EXPECT_EQ(walked, want.size());
  EXPECT_EQ((t.events.begin() + 5)->aux2, 606);
  EXPECT_TRUE(t.events.back() == want.back());
  EXPECT_EQ(t.duration(), want.back().t);

  t.events.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.events.aux().empty());
  EXPECT_EQ(t.duration(), 0);
  EXPECT_TRUE(t.events.begin() == t.events.end());
  for (const TraceEvent& e : t.events) ADD_FAILURE() << "walked " << e.t;
}

TEST(TraceTest, DurationIsLastEventTime) {
  Trace t;
  TraceEvent e;
  e.t = 5;
  t.events.push_back(e);
  e.t = 77;
  t.events.push_back(e);
  EXPECT_EQ(t.duration(), 77);
}

}  // namespace
}  // namespace aide::emul
