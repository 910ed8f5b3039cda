// Tests for the execution monitor: graph construction from VM hook events,
// pinning of native classes, object-granularity promotion (the "Array"
// enhancement), memory tracking across alloc/resize/free, the Figure 8
// remote counters, Table 2 metrics sampling, dead-component pruning, a
// differential of the monitor's caches against a cache-free replay, and one
// of a VM's monitor slot against the observer path on all five apps.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "bench/forced_offload.hpp"
#include "monitor/monitor.hpp"
#include "platform/platform.hpp"
#include "tests/test_util.hpp"

namespace aide::monitor {
namespace {

using aide::test::make_test_registry;
using graph::ComponentKey;
using vm::AccessEvent;
using vm::GcReport;
using vm::InvokeEvent;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest()
      : registry_(make_test_registry()),
        counter_cls_(registry_->find("Counter")),
        pair_cls_(registry_->find("Pair")),
        device_cls_(registry_->find("Device")),
        int_array_cls_(registry_->int_array_class()) {}

  ExecutionMonitor make_monitor(bool arrays_as_objects = false,
                                std::int64_t min_bytes = 100) {
    MonitorConfig cfg;
    cfg.granularity.arrays_as_objects = arrays_as_objects;
    cfg.granularity.min_array_bytes = min_bytes;
    cfg.granularity.object_granularity_classes = {int_array_cls_};
    return ExecutionMonitor(registry_, cfg);
  }

  InvokeEvent invoke(ClassId from, ClassId to, std::uint64_t bytes,
                     bool remote = false, bool native = false) {
    InvokeEvent ev;
    ev.vm = NodeId{1};
    ev.caller_cls = from;
    ev.callee_cls = to;
    ev.method = MethodId{0};
    ev.remote = remote;
    ev.is_native = native;
    ev.bytes = bytes;
    return ev;
  }

  std::shared_ptr<vm::ClassRegistry> registry_;
  ClassId counter_cls_, pair_cls_, device_cls_, int_array_cls_;
};

TEST_F(MonitorTest, InvokeBuildsEdge) {
  auto mon = make_monitor();
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 24));
  const auto* e = mon.graph().find_edge(ComponentKey{counter_cls_},
                                        ComponentKey{pair_cls_});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->invocations, 1u);
  EXPECT_EQ(e->bytes, 24u);
}

TEST_F(MonitorTest, SameClassInteractionNotRecorded) {
  auto mon = make_monitor();
  mon.on_invoke(invoke(counter_cls_, counter_cls_, 24));
  EXPECT_EQ(mon.graph().edge_count(), 0u);
  EXPECT_EQ(mon.counters().invoke_events, 1u);  // counted, not graphed
}

TEST_F(MonitorTest, SelfPairFirstSightingRunsTheGate) {
  // A class's first event may be a self pair: it is still counted, interned
  // and pinned, and the repeat (an event-cache miss after another pair)
  // changes nothing.
  auto mon = make_monitor();
  mon.on_invoke(invoke(device_cls_, device_cls_, 8));
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 8));
  mon.on_invoke(invoke(device_cls_, device_cls_, 8));
  const auto* device = mon.graph().find_node(ComponentKey{device_cls_});
  ASSERT_NE(device, nullptr);
  EXPECT_TRUE(device->pinned);
  EXPECT_EQ(mon.counters().class_events, 3u);
  EXPECT_EQ(mon.graph().node_count(), 3u);
  EXPECT_EQ(mon.graph().edge_count(), 1u);
}

TEST_F(MonitorTest, SelfPairReinternsNodeRemovedThroughGraph) {
  // A seen class whose node was removed through graph() (then
  // rebuild_caches()) is interned again by its next self pair.
  auto mon = make_monitor();
  mon.on_invoke(invoke(counter_cls_, counter_cls_, 8));
  mon.graph().remove_components({ComponentKey{counter_cls_}});
  mon.rebuild_caches();
  ASSERT_EQ(mon.graph().node_count(), 0u);
  mon.on_invoke(invoke(counter_cls_, counter_cls_, 8));
  EXPECT_NE(mon.graph().find_node(ComponentKey{counter_cls_}), nullptr);
  EXPECT_EQ(mon.counters().class_events, 1u);  // seen once, not re-counted
}

TEST_F(MonitorTest, AccessBuildsEdge) {
  auto mon = make_monitor();
  AccessEvent ev;
  ev.vm = NodeId{1};
  ev.from_cls = counter_cls_;
  ev.to_cls = pair_cls_;
  ev.bytes = 8;
  ev.is_write = true;
  mon.on_access(ev);
  const auto* e = mon.graph().find_edge(ComponentKey{counter_cls_},
                                        ComponentKey{pair_cls_});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->accesses, 1u);
}

TEST_F(MonitorTest, NativeClassesPinned) {
  auto mon = make_monitor();
  mon.on_invoke(invoke(counter_cls_, device_cls_, 8, false, true));
  EXPECT_TRUE(mon.graph().find_node(ComponentKey{device_cls_})->pinned);
  EXPECT_FALSE(mon.graph().find_node(ComponentKey{counter_cls_})->pinned);
}

TEST_F(MonitorTest, StatelessNativeClassNotPinned) {
  auto mon = make_monitor();
  const ClassId util = registry_->find("Util");
  mon.on_invoke(invoke(counter_cls_, util, 8, false, true));
  EXPECT_FALSE(mon.graph().find_node(ComponentKey{util})->pinned);
}

TEST_F(MonitorTest, MemoryTracksAllocResizeFree) {
  auto mon = make_monitor();
  mon.on_alloc(NodeId{1}, ObjectId{1}, pair_cls_, 100, 0);
  mon.on_resize(NodeId{1}, ObjectId{1}, pair_cls_, 50);
  const auto* n = mon.graph().find_node(ComponentKey{pair_cls_});
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->mem_bytes, 150);
  EXPECT_EQ(n->live_objects, 1);
  mon.on_free(NodeId{1}, ObjectId{1}, pair_cls_, 150, 0);
  EXPECT_EQ(mon.graph().find_node(ComponentKey{pair_cls_})->mem_bytes, 0);
}

TEST_F(MonitorTest, SelfTimeAttributedToComponent) {
  auto mon = make_monitor();
  mon.on_method_exit(NodeId{1}, counter_cls_, ObjectId{1}, MethodId{0},
                     sim_ms(3), 0);
  EXPECT_EQ(mon.graph().find_node(ComponentKey{counter_cls_})->exec_self_time,
            sim_ms(3));
}

TEST_F(MonitorTest, LargeArraysPromotedToObjectGranularity) {
  auto mon = make_monitor(/*arrays_as_objects=*/true, /*min_bytes=*/100);
  mon.on_alloc(NodeId{1}, ObjectId{7}, int_array_cls_, 5000, 0);
  const ComponentKey key = mon.component_of(int_array_cls_, ObjectId{7});
  EXPECT_TRUE(key.is_object_granularity());
  EXPECT_EQ(key.object, ObjectId{7});
  EXPECT_EQ(mon.graph().find_node(key)->mem_bytes, 5000);
}

TEST_F(MonitorTest, SmallArraysStayClassGranularity) {
  auto mon = make_monitor(true, 1000);
  mon.on_alloc(NodeId{1}, ObjectId{7}, int_array_cls_, 64, 0);
  EXPECT_FALSE(
      mon.component_of(int_array_cls_, ObjectId{7}).is_object_granularity());
}

TEST_F(MonitorTest, PromotionDisabledByDefault) {
  auto mon = make_monitor(false);
  mon.on_alloc(NodeId{1}, ObjectId{7}, int_array_cls_, 50000, 0);
  EXPECT_FALSE(
      mon.component_of(int_array_cls_, ObjectId{7}).is_object_granularity());
}

TEST_F(MonitorTest, NonArrayClassesNeverPromoted) {
  auto mon = make_monitor(true, 10);
  mon.on_alloc(NodeId{1}, ObjectId{9}, pair_cls_, 50000, 0);
  EXPECT_FALSE(mon.component_of(pair_cls_, ObjectId{9}).is_object_granularity());
}

TEST_F(MonitorTest, RemoteCountersForFigure8) {
  auto mon = make_monitor();
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 8, true, false));
  mon.on_invoke(invoke(counter_cls_, device_cls_, 8, true, true));
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 8, false, false));
  EXPECT_EQ(mon.counters().remote_invocations, 2u);
  EXPECT_EQ(mon.counters().remote_native_invocations, 1u);
  EXPECT_EQ(mon.counters().invoke_events, 3u);
}

TEST_F(MonitorTest, MetricsSummarySamplesAtGc) {
  auto mon = make_monitor();
  mon.on_alloc(NodeId{1}, ObjectId{1}, pair_cls_, 100, 0);
  mon.on_alloc(NodeId{1}, ObjectId{2}, counter_cls_, 100, 0);
  mon.on_gc(NodeId{1}, GcReport{});
  mon.on_alloc(NodeId{1}, ObjectId{3}, counter_cls_, 100, 0);
  mon.on_free(NodeId{1}, ObjectId{1}, pair_cls_, 100, 0);
  mon.on_gc(NodeId{1}, GcReport{});

  const auto summary = mon.metrics_summary();
  EXPECT_EQ(summary.total_objects, 3u);
  EXPECT_EQ(summary.max_objects, 2u);
  EXPECT_DOUBLE_EQ(summary.avg_objects, 2.0);
  EXPECT_EQ(summary.total_classes, 2u);
}

TEST_F(MonitorTest, PruneDropsDeadObjectComponents) {
  auto mon = make_monitor(true, 100);
  mon.on_alloc(NodeId{1}, ObjectId{7}, int_array_cls_, 5000, 0);
  mon.on_invoke(invoke(counter_cls_, int_array_cls_, 8));
  const ComponentKey dead = mon.component_of(int_array_cls_, ObjectId{7});
  mon.on_free(NodeId{1}, ObjectId{7}, int_array_cls_, 5000, 0);
  mon.prune_dead_components();
  EXPECT_EQ(mon.graph().find_node(dead), nullptr);
  // Class-level nodes survive pruning.
  EXPECT_NE(mon.graph().find_node(ComponentKey{counter_cls_}), nullptr);
}

TEST_F(MonitorTest, ComponentNamesUseClassNames) {
  auto mon = make_monitor();
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 8));
  const auto names = mon.component_names();
  EXPECT_EQ(names.at(ComponentKey{counter_cls_}), "Counter");
  EXPECT_EQ(names.at(ComponentKey{pair_cls_}), "Pair");
}

TEST_F(MonitorTest, ResetClearsEverything) {
  auto mon = make_monitor();
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 8));
  mon.on_alloc(NodeId{1}, ObjectId{1}, pair_cls_, 100, 0);
  mon.reset();
  EXPECT_EQ(mon.graph().node_count(), 0u);
  EXPECT_EQ(mon.counters().invoke_events, 0u);
}

TEST_F(MonitorTest, RepeatedEventsAccumulateThroughCaches) {
  // Exercises the single-entry event cache and the dense pair table: runs of
  // the same pair, an interleaved second pair, and the reverse direction must
  // all land on the right edge records.
  auto mon = make_monitor();
  for (int i = 0; i < 5; ++i) mon.on_invoke(invoke(counter_cls_, pair_cls_, 2));
  mon.on_invoke(invoke(counter_cls_, device_cls_, 3));
  for (int i = 0; i < 4; ++i) mon.on_invoke(invoke(counter_cls_, pair_cls_, 2));
  mon.on_invoke(invoke(pair_cls_, counter_cls_, 7));
  const auto* cp = mon.graph().find_edge(ComponentKey{counter_cls_},
                                         ComponentKey{pair_cls_});
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->invocations, 10u);  // both directions share the edge
  EXPECT_EQ(cp->bytes, 9u * 2 + 7);
  const auto* cd = mon.graph().find_edge(ComponentKey{counter_cls_},
                                         ComponentKey{device_cls_});
  ASSERT_NE(cd, nullptr);
  EXPECT_EQ(cd->invocations, 1u);
}

TEST_F(MonitorTest, PromotionRedirectsCachedEventResolution) {
  auto mon = make_monitor(/*arrays_as_objects=*/true, /*min_bytes=*/100);
  InvokeEvent ev = invoke(counter_cls_, int_array_cls_, 8);
  ev.callee_obj = ObjectId{7};
  // Before promotion the object resolves to its class node (and primes the
  // event cache with that resolution).
  mon.on_invoke(ev);
  mon.on_alloc(NodeId{1}, ObjectId{7}, int_array_cls_, 5000, 0);
  // After promotion the identical raw event must hit the object node, not
  // the cached class-node edge.
  mon.on_invoke(ev);
  const auto* cls_edge = mon.graph().find_edge(ComponentKey{counter_cls_},
                                               ComponentKey{int_array_cls_});
  ASSERT_NE(cls_edge, nullptr);
  EXPECT_EQ(cls_edge->invocations, 1u);
  const auto* obj_edge = mon.graph().find_edge(
      ComponentKey{counter_cls_}, ComponentKey{int_array_cls_, ObjectId{7}});
  ASSERT_NE(obj_edge, nullptr);
  EXPECT_EQ(obj_edge->invocations, 1u);

  // Freeing the promoted object restores class resolution for the same pair.
  mon.on_free(NodeId{1}, ObjectId{7}, int_array_cls_, 5000, 0);
  mon.on_invoke(ev);
  EXPECT_EQ(mon.graph()
                .find_edge(ComponentKey{counter_cls_},
                           ComponentKey{int_array_cls_})
                ->invocations,
            2u);
  EXPECT_EQ(mon.graph()
                .find_edge(ComponentKey{counter_cls_},
                           ComponentKey{int_array_cls_, ObjectId{7}})
                ->invocations,
            1u);
}

TEST_F(MonitorTest, RecordingStaysCorrectAfterPruneShiftsSlots) {
  auto mon = make_monitor(/*arrays_as_objects=*/true, /*min_bytes=*/100);
  mon.on_alloc(NodeId{1}, ObjectId{7}, int_array_cls_, 5000, 0);
  // Edge slot 0 goes to the doomed object node; slot 1 to counter<->pair.
  InvokeEvent to_obj = invoke(counter_cls_, int_array_cls_, 8);
  to_obj.callee_obj = ObjectId{7};
  mon.on_invoke(to_obj);
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 5));
  mon.on_free(NodeId{1}, ObjectId{7}, int_array_cls_, 5000, 0);
  mon.prune_dead_components();
  // counter<->pair compacted into a different slot; stale caches would bump
  // the wrong (or a dangling) record.
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 5));
  const auto* cp = mon.graph().find_edge(ComponentKey{counter_cls_},
                                         ComponentKey{pair_cls_});
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->invocations, 2u);
  EXPECT_EQ(cp->bytes, 10u);
  EXPECT_EQ(mon.graph().edge_count(), 1u);
}

TEST_F(MonitorTest, RecordingWorksAgainAfterReset) {
  auto mon = make_monitor();
  for (int i = 0; i < 3; ++i) mon.on_invoke(invoke(counter_cls_, pair_cls_, 4));
  mon.reset();
  mon.on_invoke(invoke(counter_cls_, pair_cls_, 4));
  const auto* cp = mon.graph().find_edge(ComponentKey{counter_cls_},
                                         ComponentKey{pair_cls_});
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->invocations, 1u);
  EXPECT_EQ(mon.counters().invoke_events, 1u);
}

// --- differential: cached monitor vs one rebuilt after every event ---------

// Everything observable about a monitor: node keys in index order with their
// NodeInfo, edges in slot order with their weights, the counters, and the
// Table 2 summary over the GC samples.
::testing::AssertionResult same_state(const ExecutionMonitor& a,
                                      const ExecutionMonitor& b) {
  const graph::ExecGraph& ga = a.graph();
  const graph::ExecGraph& gb = b.graph();
  if (ga.node_count() != gb.node_count()) {
    return ::testing::AssertionFailure()
           << "node count " << ga.node_count() << " vs " << gb.node_count();
  }
  for (graph::ExecGraph::NodeIndex i = 0; i < ga.node_count(); ++i) {
    const graph::NodeInfo& x = ga.node_at(i);
    const graph::NodeInfo& y = gb.node_at(i);
    if (ga.key_of(i) != gb.key_of(i) || x.mem_bytes != y.mem_bytes ||
        x.peak_mem_bytes != y.peak_mem_bytes ||
        x.exec_self_time != y.exec_self_time || x.pinned != y.pinned ||
        x.live_objects != y.live_objects) {
      return ::testing::AssertionFailure()
             << "node " << i << ": " << ga.key_of(i) << " vs "
             << gb.key_of(i);
    }
  }
  if (ga.edge_count() != gb.edge_count()) {
    return ::testing::AssertionFailure()
           << "edge count " << ga.edge_count() << " vs " << gb.edge_count();
  }
  for (graph::ExecGraph::EdgeSlot s = 0; s < ga.edge_count(); ++s) {
    const graph::EdgeInfo& x = ga.edge_at(s);
    const graph::EdgeInfo& y = gb.edge_at(s);
    if (ga.edge_ends(s) != gb.edge_ends(s) ||
        x.invocations != y.invocations || x.accesses != y.accesses ||
        x.bytes != y.bytes) {
      return ::testing::AssertionFailure() << "edge slot " << s;
    }
  }
  const MonitorCounters& ca = a.counters();
  const MonitorCounters& cb = b.counters();
  if (ca.invoke_events != cb.invoke_events ||
      ca.access_events != cb.access_events ||
      ca.class_events != cb.class_events ||
      ca.objects_created != cb.objects_created ||
      ca.objects_freed != cb.objects_freed ||
      ca.remote_invocations != cb.remote_invocations ||
      ca.remote_native_invocations != cb.remote_native_invocations ||
      ca.remote_accesses != cb.remote_accesses) {
    return ::testing::AssertionFailure() << "counters differ";
  }
  const MetricsSummary ma = a.metrics_summary();
  const MetricsSummary mb = b.metrics_summary();
  if (ma.avg_classes != mb.avg_classes || ma.avg_objects != mb.avg_objects ||
      ma.avg_links != mb.avg_links || ma.max_classes != mb.max_classes ||
      ma.max_objects != mb.max_objects || ma.max_links != mb.max_links ||
      ma.total_classes != mb.total_classes ||
      ma.total_objects != mb.total_objects ||
      ma.total_interaction_events != mb.total_interaction_events) {
    return ::testing::AssertionFailure() << "metrics summary differs";
  }
  return ::testing::AssertionSuccess();
}

// Seeded random event streams fed to two monitors: one runs its caches
// normally (event cache, pair table, self-pair shortcut, class and object
// node vectors), the other rebuilds every cache after each event, so each of
// its events resolves from the graph alone. Streams mix allocations
// (promotable int[] included), frees, resizes, invocations and accesses
// between object, static and self endpoints, method exits, GC samples and
// prunes. Like real traces they are bursty: interactions often repeat the
// previous endpoint pair, frees often hit one of its objects, and endpoints
// may name the object allocated next, so cached resolutions go stale.
TEST_F(MonitorTest, CachesMatchRebuildAfterEveryEvent) {
  constexpr NodeId kVm{1};
  constexpr std::int64_t kMinArray = 100;
  using Endpoint = std::pair<ClassId, ObjectId>;
  struct Live {
    ObjectId id;
    ClassId cls;
    std::int64_t bytes;
  };
  for (const bool arrays : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      auto cached = make_monitor(arrays, kMinArray);
      auto rebuilt = make_monitor(arrays, kMinArray);
      std::mt19937_64 rng(seed);
      const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
      };
      const auto any_class = [&] {
        return ClassId{static_cast<std::uint32_t>(pick(registry_->size()))};
      };
      const auto both = [&](auto&& fn) {
        fn(cached);
        fn(rebuilt);
      };
      std::vector<Live> live;
      std::vector<Live> dead;
      std::uint64_t next_id = 1;
      // A live object, a freed one, the int[] allocated next, or a static.
      const auto endpoint = [&]() -> Endpoint {
        const std::size_t kind = pick(9);
        if (kind < 4 && !live.empty()) {
          const Live& o = live[pick(live.size())];
          return {o.cls, o.id};
        }
        if (kind == 4 && !dead.empty()) {
          const Live& o = dead[pick(dead.size())];
          return {o.cls, o.id};
        }
        if (kind == 5) return {int_array_cls_, ObjectId{next_id}};
        return {any_class(), ObjectId::invalid()};
      };
      Endpoint last_from{any_class(), ObjectId::invalid()};
      Endpoint last_to = last_from;
      // The next interaction's endpoints: a repeat of the last pair, a self
      // pair, or a fresh draw.
      const auto interaction = [&] {
        if (pick(3) != 0) {
          last_from = endpoint();
          last_to = pick(4) == 0 ? last_from : endpoint();
        }
      };

      for (int step = 0; step < 3000; ++step) {
        const std::size_t what = pick(20);
        if (what < 3) {  // alloc; int[] may be promoted
          Live o;
          o.id = ObjectId{next_id++};
          o.cls = pick(3) == 0 ? int_array_cls_ : any_class();
          o.bytes = static_cast<std::int64_t>(pick(4) == 0 ? 64 + pick(36)
                                                           : 100 + pick(400));
          live.push_back(o);
          both([&](ExecutionMonitor& m) {
            m.on_alloc(kVm, o.id, o.cls, o.bytes, step);
          });
        } else if (what < 5 && !live.empty()) {  // free
          std::size_t i = pick(live.size());
          for (std::size_t j = 0; j < live.size(); ++j) {
            if (pick(2) == 0 && (live[j].id == last_from.second ||
                                 live[j].id == last_to.second)) {
              i = j;
            }
          }
          const Live o = live[i];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          dead.push_back(o);
          both([&](ExecutionMonitor& m) {
            m.on_free(kVm, o.id, o.cls, o.bytes, step);
          });
        } else if (what < 6 && !live.empty()) {  // resize
          Live& o = live[pick(live.size())];
          const auto delta = static_cast<std::int64_t>(pick(64)) - 16;
          o.bytes += delta;
          both([&](ExecutionMonitor& m) {
            m.on_resize(kVm, o.id, o.cls, delta);
          });
        } else if (what < 12) {  // invoke
          interaction();
          InvokeEvent ev = invoke(last_from.first, last_to.first, pick(32),
                                  pick(3) == 0, pick(4) == 0);
          ev.caller_obj = last_from.second;
          ev.callee_obj = last_to.second;
          ev.is_static = !ev.callee_obj.valid();
          both([&](ExecutionMonitor& m) { m.on_invoke(ev); });
        } else if (what < 17) {  // access
          interaction();
          AccessEvent ev;
          ev.vm = kVm;
          ev.from_cls = last_from.first;
          ev.from_obj = last_from.second;
          ev.to_cls = last_to.first;
          ev.to_obj = last_to.second;
          ev.is_static = !ev.to_obj.valid();
          ev.is_write = pick(2) == 0;
          ev.remote = pick(3) == 0;
          ev.bytes = pick(16);
          both([&](ExecutionMonitor& m) { m.on_access(ev); });
        } else if (what < 19) {  // method exit
          const Endpoint at = pick(2) == 0 ? last_to : endpoint();
          const auto self_time = static_cast<SimDuration>(pick(1000));
          both([&](ExecutionMonitor& m) {
            m.on_method_exit(kVm, at.first, at.second, MethodId{0}, self_time,
                             step);
          });
        } else if (pick(2) == 0) {
          both([&](ExecutionMonitor& m) { m.on_gc(kVm, GcReport{}); });
        } else {
          both([](ExecutionMonitor& m) { (void)m.prune_dead_components(); });
        }
        rebuilt.rebuild_caches();
        ASSERT_TRUE(same_state(cached, rebuilt))
            << "arrays=" << arrays << " seed=" << seed << " step=" << step;
      }
    }
  }
}

// --- differential: the VM's monitor slot vs the observer path ---------------

// Forwards every hook to a monitor, like perfbench's TimedMonitor: a monitor
// behind it hears its VM through the observer path, so every op takes the
// VM's slow path and builds its events there.
class ForwardingHooks final : public vm::VmHooks {
 public:
  explicit ForwardingHooks(ExecutionMonitor& inner) : inner_(inner) {}

  void on_invoke(const InvokeEvent& ev) override { inner_.on_invoke(ev); }
  void on_access(const AccessEvent& ev) override { inner_.on_access(ev); }
  void on_method_enter(NodeId vm, ClassId cls, ObjectId obj, MethodId m,
                       SimTime t) override {
    inner_.on_method_enter(vm, cls, obj, m, t);
  }
  void on_method_exit(NodeId vm, ClassId cls, ObjectId obj, MethodId m,
                      SimDuration self_time, SimTime t) override {
    inner_.on_method_exit(vm, cls, obj, m, self_time, t);
  }
  void on_alloc(NodeId vm, ObjectId obj, ClassId cls, std::int64_t bytes,
                SimTime t) override {
    inner_.on_alloc(vm, obj, cls, bytes, t);
  }
  void on_resize(NodeId vm, ObjectId obj, ClassId cls,
                 std::int64_t delta) override {
    inner_.on_resize(vm, obj, cls, delta);
  }
  void on_free(NodeId vm, ObjectId obj, ClassId cls, std::int64_t bytes,
               SimTime t) override {
    inner_.on_free(vm, obj, cls, bytes, t);
  }
  void on_gc(NodeId vm, const GcReport& report) override {
    inner_.on_gc(vm, report);
  }

 private:
  ExecutionMonitor& inner_;
};

// Offloads everything it can on the client's second GC, so both VMs run
// remote traffic, at the same logical instant in both runs.
class OffloadOnSecondGc final : public vm::VmHooks {
 public:
  explicit OffloadOnSecondGc(platform::Platform& p) : p_(p) {}
  void on_gc(NodeId node, const GcReport&) override {
    if (node != p_.client().node() || ++cycles_ != 2) return;
    (void)p_.offload_now(std::int64_t{1});
  }

 private:
  platform::Platform& p_;
  int cycles_ = 0;
};

struct SlotRun {
  std::unique_ptr<platform::Platform> platform;
  std::uint64_t checksum = 0;
};

// One app on a platform whose monitor keeps both VMs' slots, or hears both
// through a ForwardingHooks observer registered where perfbench's traced run
// puts its TimedMonitor.
SlotRun run_app(const apps::AppInfo& app, bool arrays, bool in_slot) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::PlatformConfig cfg;
  cfg.client_heap = 64 << 20;
  cfg.auto_offload = false;  // OffloadOnSecondGc drives the schedule
  cfg.client_gc_alloc_count_threshold = 4;
  cfg.client_gc_alloc_bytes_divisor = 512;
  cfg.enhancements.arrays_as_objects = arrays;
  cfg.enhancements.min_array_bytes = 256;
  SlotRun run;
  run.platform = std::make_unique<platform::Platform>(reg, cfg);
  platform::Platform& p = *run.platform;
  ExecutionMonitor& monitor = p.exec_monitor();
  ForwardingHooks forward(monitor);
  if (!in_slot) {
    for (vm::Vm* v : {&p.client(), &p.surrogate()}) {
      v->remove_hooks(&monitor);
      v->add_hooks(&forward);
    }
  }
  OffloadOnSecondGc offload(p);
  p.client().add_hooks(&offload, vm::kGcEvents);
  run.checksum = app.run(p.client(), bench::small_app_params());
  p.client().remove_hooks(&offload);
  p.client().remove_hooks(&forward);
  p.surrogate().remove_hooks(&forward);
  return run;
}

class MonitorSlotTest
    : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

TEST_P(MonitorSlotTest, SlotMatchesObserverPath) {
  const auto& [name, arrays] = GetParam();
  const apps::AppInfo& app = apps::app_by_name(name);
  const SlotRun slot = run_app(app, arrays, /*in_slot=*/true);
  const SlotRun observed = run_app(app, arrays, /*in_slot=*/false);
  platform::Platform& a = *slot.platform;
  platform::Platform& b = *observed.platform;

  EXPECT_EQ(slot.checksum, observed.checksum);
  EXPECT_EQ(a.elapsed(), b.elapsed());
  ASSERT_EQ(a.offloads().size(), 1u);
  ASSERT_EQ(b.offloads().size(), 1u);
  EXPECT_EQ(a.offloads()[0].objects_migrated, b.offloads()[0].objects_migrated);
  EXPECT_TRUE(same_state(a.exec_monitor(), b.exec_monitor()));
  const MonitorCounters& c = a.exec_monitor().counters();
  EXPECT_GT(c.remote_accesses + c.remote_invocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, MonitorSlotTest,
    ::testing::Combine(::testing::Values("JavaNote", "Dia", "Biomer", "Voxel",
                                         "Tracer"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Array" : "_Class");
    });

}  // namespace
}  // namespace aide::monitor
