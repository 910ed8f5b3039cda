// Tests for the transport's consumption of a BatchSafetyOracle: refused
// stores write through eagerly (flush earlier, never reorder), unproven
// riders force a pre-invoke flush, installing an oracle drains the queue,
// and a refused store or rider whose drain loses the peer completes locally.
// Also read-ahead's group prefetch.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/batch_oracle.hpp"
#include "netsim/link.hpp"
#include "rpc/endpoint.hpp"
#include "tests/test_util.hpp"

namespace aide::rpc {
namespace {

using aide::test::make_test_registry;
using vm::ObjectRef;
using vm::Value;
using vm::Vm;
using vm::VmConfig;

// Scriptable oracle: each verdict is a settable knob, so tests can flip one
// proof without reinstalling (reinstalling would flush the queue).
class FakeOracle final : public analysis::BatchSafetyOracle {
 public:
  bool defer = true;
  bool riders = true;

  bool store_deferrable() const noexcept override { return defer; }
  bool invoke_accepts_riders(ClassId, MethodId) const noexcept override {
    return riders;
  }
};

class BatchSafetyEndpointTest : public ::testing::Test {
 protected:
  BatchSafetyEndpointTest()
      : registry_(make_test_registry()),
        link_(netsim::LinkParams::wavelan()),
        client_(client_cfg(), registry_, clock_),
        surrogate_(surrogate_cfg(), registry_, clock_),
        client_ep_(client_, link_),
        surrogate_ep_(surrogate_, link_) {
    Endpoint::connect(client_ep_, surrogate_ep_);
  }

  static VmConfig client_cfg() {
    VmConfig c;
    c.node = NodeId{1};
    c.name = "client";
    c.is_client = true;
    c.heap_capacity = 4 << 20;
    return c;
  }
  static VmConfig surrogate_cfg() {
    VmConfig c;
    c.node = NodeId{2};
    c.name = "surrogate";
    c.is_client = false;
    c.cpu_speed = 3.5;
    c.heap_capacity = 32 << 20;
    return c;
  }

  void offload(ObjectRef obj) {
    const ObjectId ids[] = {obj.id};
    client_ep_.migrate_objects(ids);
  }

  ObjectRef offloaded_pair() {
    const ObjectRef pair = client_.new_object("Pair");
    client_.add_root(pair);
    offload(pair);
    return pair;
  }

  // Platform-style recovery at endpoint scale: sever the pair, then
  // repatriate every surviving surrogate object.
  void install_recovery() {
    client_ep_.set_peer_failure_handler([this] {
      std::vector<ObjectId> ids;
      surrogate_.heap().for_each(
          [&](const vm::Object& o) { ids.push_back(o.id); });
      std::sort(ids.begin(), ids.end());
      client_ep_.disconnect();
      for (const ObjectId id : ids) {
        client_.migrate_in(surrogate_.migrate_out(id));
      }
      return true;
    });
  }

  void kill_link() {
    netsim::FaultPlan plan;
    plan.dead_after = clock_.now();
    link_.set_fault_plan(plan);
  }

  std::shared_ptr<vm::ClassRegistry> registry_;
  SimClock clock_;
  netsim::Link link_;
  Vm client_;
  Vm surrogate_;
  Endpoint client_ep_;
  Endpoint surrogate_ep_;
  FakeOracle oracle_;
};

TEST_F(BatchSafetyEndpointTest, PermissiveOracleKeepsWriteBehind) {
  client_ep_.set_batch_safety(&oracle_);
  const ObjectRef pair = offloaded_pair();
  client_.put_field(pair, FieldId{0}, Value{1});
  client_.put_field(pair, FieldId{1}, Value{2});
  EXPECT_EQ(client_ep_.pending_ops(), 2u);
  EXPECT_EQ(client_ep_.stats().unproven_stores_flushed, 0u);
  client_ep_.flush_pending();
  EXPECT_EQ(surrogate_.raw_get_field(pair.id, FieldId{0}).as_int(), 1);
}

TEST_F(BatchSafetyEndpointTest, RefusedStoreWritesThroughEagerly) {
  client_ep_.set_batch_safety(&oracle_);
  const ObjectRef pair = offloaded_pair();
  oracle_.defer = false;
  client_.put_field(pair, FieldId{0}, Value{41});
  // Nothing queued: the store crossed the link synchronously.
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
  EXPECT_EQ(surrogate_.raw_get_field(pair.id, FieldId{0}).as_int(), 41);
  EXPECT_EQ(client_ep_.stats().unproven_stores_flushed, 1u);
}

TEST_F(BatchSafetyEndpointTest, RefusedStoreDrainsQueueFirst) {
  client_ep_.set_batch_safety(&oracle_);
  const ObjectRef pair = offloaded_pair();
  client_.put_field(pair, FieldId{0}, Value{1});  // deferred
  ASSERT_EQ(client_ep_.pending_ops(), 1u);
  oracle_.defer = false;
  client_.put_field(pair, FieldId{1}, Value{2});  // refused
  // Program order held: the queued store flushed before the write-through.
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
  EXPECT_EQ(surrogate_.raw_get_field(pair.id, FieldId{0}).as_int(), 1);
  EXPECT_EQ(surrogate_.raw_get_field(pair.id, FieldId{1}).as_int(), 2);
}

TEST_F(BatchSafetyEndpointTest, RefusedStoreLandsLocallyWhenDrainLosesPeer) {
  client_ep_.set_batch_safety(&oracle_);
  const ObjectRef pair = offloaded_pair();
  install_recovery();
  client_.put_field(pair, FieldId{0}, Value{1});  // deferred
  ASSERT_EQ(client_ep_.pending_ops(), 1u);
  kill_link();
  oracle_.defer = false;
  try {
    // Refused: the queue drains first, finds the peer dead and recovers.
    client_.put_field(pair, FieldId{1}, Value{2});
  } catch (const VmError& e) {
    ADD_FAILURE() << "store escaped: " << e.what();
  }
  // The pair came home; the queued store and the refused one both landed.
  EXPECT_TRUE(client_.is_local(pair.id));
  EXPECT_EQ(client_.raw_get_field(pair.id, FieldId{0}), Value{1});
  EXPECT_EQ(client_.raw_get_field(pair.id, FieldId{1}), Value{2});
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
}

TEST_F(BatchSafetyEndpointTest, UnprovenRidersFlushBeforeInvoke) {
  client_ep_.set_batch_safety(&oracle_);
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  const ObjectRef pair = client_.new_object("Pair");
  client_.add_root(pair);
  {
    const ObjectId ids[] = {counter.id, pair.id};
    client_ep_.migrate_objects(ids);
  }
  oracle_.riders = false;
  client_.put_field(pair, FieldId{0}, Value{5});
  ASSERT_EQ(client_ep_.pending_ops(), 1u);
  const auto before = client_ep_.stats();
  EXPECT_EQ(client_.call(counter, "inc").as_int(), 1);
  const auto after = client_ep_.stats();
  EXPECT_EQ(after.unproven_riders_flushed, 1u);
  // Two frames: the refused riders as their own flush, then the invoke.
  EXPECT_EQ(after.rpcs_sent - before.rpcs_sent, 2u);
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
  EXPECT_EQ(surrogate_.raw_get_field(pair.id, FieldId{0}).as_int(), 5);
}

TEST_F(BatchSafetyEndpointTest, RefusedRidersInvokeLocallyWhenDrainLosesPeer) {
  client_ep_.set_batch_safety(&oracle_);
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  const ObjectRef pair = client_.new_object("Pair");
  client_.add_root(pair);
  {
    const ObjectId ids[] = {counter.id, pair.id};
    client_ep_.migrate_objects(ids);
  }
  install_recovery();
  client_.put_field(pair, FieldId{0}, Value{5});  // deferred
  ASSERT_EQ(client_ep_.pending_ops(), 1u);
  kill_link();
  oracle_.riders = false;
  Value got;
  try {
    // The pre-invoke flush finds the peer dead and recovers.
    got = client_.call(counter, "inc");
  } catch (const VmError& e) {
    ADD_FAILURE() << "invoke escaped: " << e.what();
  }
  EXPECT_EQ(got, Value{1});
  EXPECT_TRUE(client_.is_local(counter.id));
  EXPECT_EQ(client_.raw_get_field(pair.id, FieldId{0}), Value{5});
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
}

TEST_F(BatchSafetyEndpointTest, ProvenRidersStillShareTheFrame) {
  client_ep_.set_batch_safety(&oracle_);
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  const ObjectRef pair = client_.new_object("Pair");
  client_.add_root(pair);
  {
    const ObjectId ids[] = {counter.id, pair.id};
    client_ep_.migrate_objects(ids);
  }
  client_.put_field(pair, FieldId{0}, Value{5});
  const auto before = client_ep_.stats();
  EXPECT_EQ(client_.call(counter, "inc").as_int(), 1);
  const auto after = client_ep_.stats();
  EXPECT_EQ(after.unproven_riders_flushed, 0u);
  EXPECT_EQ(after.rpcs_sent - before.rpcs_sent, 1u);  // rider hitched along
  EXPECT_GT(after.batched_ops, before.batched_ops);
}

TEST_F(BatchSafetyEndpointTest, InstallingOracleFlushesQueue) {
  const ObjectRef pair = offloaded_pair();
  client_.put_field(pair, FieldId{0}, Value{9});
  ASSERT_EQ(client_ep_.pending_ops(), 1u);
  client_ep_.set_batch_safety(&oracle_);
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
  EXPECT_EQ(surrogate_.raw_get_field(pair.id, FieldId{0}).as_int(), 9);
  EXPECT_EQ(client_ep_.batch_safety(), &oracle_);
}

TEST_F(BatchSafetyEndpointTest, ReadAheadPrefetchesEveryMate) {
  const ObjectRef a = client_.new_object("Pair");
  const ObjectRef b = client_.new_object("Holder");
  client_.add_root(a);
  client_.add_root(b);
  client_.put_field(a, FieldId{0}, Value{1});
  {
    const ObjectId ids[] = {a.id, b.id};
    client_ep_.migrate_objects(ids);
  }
  client_ep_.set_prefetch_groups({{a.id, b.id}});
  EXPECT_EQ(client_.get_field(a, FieldId{0}).as_int(), 1);
  const auto stats = client_ep_.stats();
  EXPECT_EQ(stats.objects_prefetched, 1u);
}

}  // namespace
}  // namespace aide::rpc
