// Tests for the RPC endpoints: transparent remote invocation/access across
// two VMs, the placement rules (natives and statics on the client, managed
// statics local), object migration (including cyclic batches), reference
// mapping, distributed GC releases, reentrant callbacks, error propagation,
// and simulated-time charging.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
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

VmConfig client_cfg() {
  VmConfig c;
  c.node = NodeId{1};
  c.name = "client";
  c.is_client = true;
  c.heap_capacity = 4 << 20;
  return c;
}

VmConfig surrogate_cfg() {
  VmConfig c;
  c.node = NodeId{2};
  c.name = "surrogate";
  c.is_client = false;
  c.cpu_speed = 3.5;
  c.heap_capacity = 32 << 20;
  return c;
}

class EndpointTest : public ::testing::Test {
 protected:
  EndpointTest()
      : registry_(make_test_registry()),
        link_(netsim::LinkParams::wavelan()),
        client_(client_cfg(), registry_, clock_),
        surrogate_(surrogate_cfg(), registry_, clock_),
        client_ep_(client_, link_),
        surrogate_ep_(surrogate_, link_) {
    Endpoint::connect(client_ep_, surrogate_ep_);
  }

  // Moves one client object to the surrogate.
  void offload(ObjectRef obj) {
    const ObjectId ids[] = {obj.id};
    client_ep_.migrate_objects(ids);
  }

  std::shared_ptr<vm::ClassRegistry> registry_;
  SimClock clock_;
  netsim::Link link_;
  Vm client_;
  Vm surrogate_;
  Endpoint client_ep_;
  Endpoint surrogate_ep_;
};

// A client and an offloaded Chain on a surrogate, over their own link.
// Chain.poke() calls back into the client-resident Counter the chain holds,
// then runs `after_callback` (still on the surrogate, before the reply is
// sealed); Chain.tag() just returns a fixed string.
struct ChainPair {
  explicit ChainPair(std::function<void(ChainPair&)> after_callback)
      : registry(make_test_registry()) {
    vm::ClassBuilder cb("Chain");
    cb.field("next");
    cb.method("tag", [](Vm&, ObjectRef, auto) -> Value {
      return Value{"a reply of distinctive length"};
    });
    cb.method("poke", [this, after = std::move(after_callback)](
                          Vm& ctx, ObjectRef self, auto) -> Value {
      const ObjectRef next = ctx.get_field(self, FieldId{0}).as_ref();
      const Value v = ctx.call(next, "inc");
      if (after) after(*this);
      return v;
    });
    const ClassId chain_cls = registry->register_class(cb.build());
    client = std::make_unique<Vm>(client_cfg(), registry, clock);
    surrogate = std::make_unique<Vm>(surrogate_cfg(), registry, clock);
    client_ep = std::make_unique<Endpoint>(*client, link);
    surrogate_ep = std::make_unique<Endpoint>(*surrogate, link);
    Endpoint::connect(*client_ep, *surrogate_ep);

    chain = client->new_object(chain_cls);
    counter = client->new_object("Counter");
    client->put_field(chain, FieldId{0}, Value{counter});
    client->add_root(chain);
    client->add_root(counter);
    const ObjectId ids[] = {chain.id};
    client_ep->migrate_objects(ids);
  }
  // poke() holds `this`.
  ChainPair(const ChainPair&) = delete;
  ChainPair& operator=(const ChainPair&) = delete;

  [[nodiscard]] std::int64_t count() {
    return client->raw_get_field(counter.id, FieldId{0}).as_int();
  }

  std::shared_ptr<vm::ClassRegistry> registry;
  SimClock clock;
  netsim::Link link;
  std::unique_ptr<Vm> client;
  std::unique_ptr<Vm> surrogate;
  std::unique_ptr<Endpoint> client_ep;
  std::unique_ptr<Endpoint> surrogate_ep;
  ObjectRef chain;
  ObjectRef counter;
};

TEST_F(EndpointTest, MigrationMovesObjectAndLeavesStub) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);
  EXPECT_FALSE(client_.is_local(counter.id));
  EXPECT_TRUE(client_.knows(counter.id));
  EXPECT_TRUE(surrogate_.is_local(counter.id));
  EXPECT_EQ(client_.stub_count(), 1u);
}

TEST_F(EndpointTest, RemoteInvocationFollowsObject) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  client_.call(counter, "inc");
  offload(counter);
  // State travelled with the object; execution follows it transparently.
  EXPECT_EQ(client_.call(counter, "inc").as_int(), 2);
  EXPECT_EQ(client_.call(counter, "get").as_int(), 2);
  EXPECT_GE(client_.stats().remote_invocations, 2u);
}

TEST_F(EndpointTest, RemoteFieldAccess) {
  const ObjectRef pair = client_.new_object("Pair");
  client_.add_root(pair);
  client_.put_field(pair, FieldId{0}, Value{7});
  offload(pair);
  EXPECT_EQ(client_.get_field(pair, FieldId{0}).as_int(), 7);
  client_.put_field(pair, FieldId{1}, Value{"remote"});
  EXPECT_EQ(client_.get_field(pair, FieldId{1}).as_str(), "remote");
  EXPECT_GE(client_.stats().remote_field_accesses, 3u);
}

TEST_F(EndpointTest, RemoteArrayOps) {
  const ObjectRef arr = client_.new_int_array(8);
  client_.add_root(arr);
  client_.array_put(arr, 2, Value{11});
  offload(arr);
  EXPECT_EQ(client_.array_length(arr), 8);
  EXPECT_EQ(client_.array_get(arr, 2).as_int(), 11);
  client_.array_put(arr, 3, Value{22});
  EXPECT_EQ(client_.array_get(arr, 3).as_int(), 22);
}

TEST_F(EndpointTest, RemoteCharArrayBulkOps) {
  const ObjectRef arr = client_.new_char_array(32);
  client_.add_root(arr);
  offload(arr);
  client_.chars_write(arr, 4, "abcdef");
  EXPECT_EQ(client_.chars_read(arr, 4, 6), "abcdef");
}

TEST_F(EndpointTest, MigratedBatchPreservesCycles) {
  const ObjectRef a = client_.new_object("Holder");
  const ObjectRef b = client_.new_object("Holder");
  client_.put_field(a, FieldId{0}, Value{b});
  client_.put_field(b, FieldId{0}, Value{a});
  client_.add_root(a);

  const ObjectId ids[] = {a.id, b.id};
  client_ep_.migrate_objects(ids);

  EXPECT_TRUE(surrogate_.is_local(a.id));
  EXPECT_TRUE(surrogate_.is_local(b.id));
  // The cycle is intact on the surrogate.
  EXPECT_EQ(surrogate_.raw_get_field(a.id, FieldId{0}).as_ref().id, b.id);
  EXPECT_EQ(surrogate_.raw_get_field(b.id, FieldId{0}).as_ref().id, a.id);
  // And transparently reachable from the client.
  EXPECT_EQ(client_.get_field(a, FieldId{0}).as_ref(), b);
}

TEST_F(EndpointTest, MigratedObjectKeepsReferenceToClientObject) {
  const ObjectRef holder = client_.new_object("Holder");
  const ObjectRef kept = client_.new_object("Counter");
  client_.put_field(holder, FieldId{0}, Value{kept});
  client_.add_root(holder);

  offload(holder);
  // The surrogate's copy references the client-resident counter through a
  // stub; invoking through it must route back to the client.
  const Value got = client_.get_field(holder, FieldId{0});
  EXPECT_EQ(got.as_ref(), kept);
  EXPECT_TRUE(client_.is_local(kept.id));
  EXPECT_TRUE(surrogate_.knows(kept.id));
  EXPECT_FALSE(surrogate_.is_local(kept.id));
}

TEST_F(EndpointTest, NativeMethodsExecuteOnClient) {
  // Device is pinned in practice, but even if its object is reachable from
  // the surrogate, native calls route to the client.
  const ObjectRef device = client_.new_object("Device");
  client_.add_root(device);

  // Invoke from the surrogate side: target is on the client.
  surrogate_.install_stub(device.id, client_.find_class("Device"),
                          vm::ObjectKind::plain);
  const Value beeps = surrogate_.call(ObjectRef{device.id}, "beep");
  EXPECT_EQ(beeps.as_int(), 1);
  EXPECT_TRUE(client_.is_local(device.id));
  EXPECT_EQ(client_.get_field(device, FieldId{0}).as_int(), 1);
}

TEST_F(EndpointTest, StatelessNativeRunsLocallyWithEnhancement) {
  VmConfig cfg = surrogate_cfg();
  cfg.stateless_natives_local = true;
  cfg.node = NodeId{3};
  Vm local_surrogate(cfg, registry_, clock_);
  Endpoint ep(local_surrogate, link_);
  // No peer needed: the stateless native runs where invoked.
  EXPECT_EQ(local_surrogate.call_static("Util", "twice", {Value{4}}).as_int(),
            8);
}

TEST_F(EndpointTest, StatelessNativeRoutesToClientWithoutEnhancement) {
  // Default configuration: even stateless natives execute on the client.
  EXPECT_EQ(surrogate_.call_static("Util", "twice", {Value{4}}).as_int(), 8);
  EXPECT_EQ(surrogate_.stats().remote_invocations, 1u);
}

TEST_F(EndpointTest, StaticDataLivesOnClient) {
  surrogate_.put_static("Calc", "memory", Value{123});
  // The read flushes the write-behind put in the same frame.
  EXPECT_EQ(surrogate_.get_static("Calc", "memory").as_int(), 123);
  // The write landed on the client VM's static storage.
  EXPECT_EQ(client_.raw_get_static(client_.find_class("Calc"), 0).as_int(),
            123);
  EXPECT_GE(surrogate_.stats().remote_field_accesses, 2u);
}

TEST_F(EndpointTest, ManagedStaticRunsOnInvokingVm) {
  const auto before = surrogate_.stats().remote_invocations;
  EXPECT_EQ(surrogate_.call_static("Calc", "add", {Value{1}, Value{2}})
                .as_int(),
            3);
  EXPECT_EQ(surrogate_.stats().remote_invocations, before);
}

TEST_F(EndpointTest, ReentrantCallback) {
  // Client invokes a method on an offloaded Chain whose body calls back
  // into a client-resident Counter — client -> surrogate -> client.
  ChainPair p(nullptr);
  EXPECT_EQ(p.client->call(p.chain, "poke").as_int(), 1);
  EXPECT_EQ(p.client->call(p.chain, "poke").as_int(), 2);
  EXPECT_TRUE(p.client->is_local(p.counter.id));
  EXPECT_EQ(p.client->call(p.counter, "get").as_int(), 2);
}

TEST_F(EndpointTest, RemoteErrorsPropagateWithCode) {
  const ObjectRef arr = client_.new_int_array(4);
  client_.add_root(arr);
  offload(arr);
  try {
    client_.array_get(arr, 99);
    FAIL() << "expected bad_array_index";
  } catch (const VmError& e) {
    EXPECT_EQ(e.code(), VmErrorCode::bad_array_index);
    EXPECT_NE(std::string(e.what()).find("remote"), std::string::npos);
  }
}

// A deferred store the peer refuses surfaces once, at the drain that sends
// it, as a refused rider of a multi-op batch does; the queue keeps nothing.
TEST_F(EndpointTest, RefusedDeferredStoreSurfacesOnce) {
  const ObjectRef arr = client_.new_int_array(4);
  client_.add_root(arr);
  offload(arr);
  client_.array_put(arr, 99, Value{1});
  ASSERT_EQ(client_ep_.pending_ops(), 1u);
  try {
    client_ep_.flush_pending();
    FAIL() << "expected bad_array_index";
  } catch (const VmError& e) {
    EXPECT_EQ(e.code(), VmErrorCode::bad_array_index);
  }
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
  EXPECT_NO_THROW(client_ep_.flush_pending());
  client_.array_put(arr, 3, Value{22});
  EXPECT_EQ(client_.array_get(arr, 3).as_int(), 22);
}

TEST_F(EndpointTest, RpcAdvancesSimulatedClock) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);
  const SimTime before = clock_.now();
  client_.call(counter, "get");
  // At least one full round trip of the WaveLAN link.
  EXPECT_GE(clock_.now() - before, sim_us(2400));
}

TEST_F(EndpointTest, StatsCountTraffic) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);
  client_.call(counter, "inc");
  const auto& stats = client_ep_.stats();
  EXPECT_GE(stats.rpcs_sent, 2u);  // migrate + invoke
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
  EXPECT_EQ(stats.migrations_sent, 1u);
  EXPECT_EQ(stats.objects_migrated_out, 1u);
}

TEST_F(EndpointTest, DistributedGcReleasesDroppedStubs) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);
  EXPECT_EQ(surrogate_ep_.refs().export_count(), 1u);

  // Drop the only client reference; client GC should release the stub and
  // the surrogate should un-export (making the object collectable there).
  client_.remove_root(counter);
  client_.clear_driver_roots();
  client_.collect_garbage();
  EXPECT_EQ(client_.stub_count(), 0u);
  EXPECT_EQ(surrogate_ep_.refs().export_count(), 0u);

  surrogate_.collect_garbage();
  EXPECT_FALSE(surrogate_.is_local(counter.id));
}

TEST_F(EndpointTest, ExportsActAsGcRootsOnOwner) {
  // A client object referenced only by the surrogate must survive client GC.
  const ObjectRef holder = client_.new_object("Holder");
  const ObjectRef kept = client_.new_object("Counter");
  client_.put_field(holder, FieldId{0}, Value{kept});
  client_.add_root(holder);
  offload(holder);

  // Now drop all client-side references to `kept`: it is only reachable via
  // the migrated holder's field on the surrogate (through the export table).
  client_.clear_driver_roots();
  client_.collect_garbage();
  EXPECT_TRUE(client_.is_local(kept.id));
  EXPECT_EQ(client_.get_field(holder, FieldId{0}).as_ref().id, kept.id);
}

TEST_F(EndpointTest, MigrationChargesLinkForPayload) {
  const ObjectRef big = client_.new_char_array(200 * 1024);
  client_.add_root(big);
  const SimTime before = clock_.now();
  offload(big);
  // 200 KB at 11 Mbps is ~150 ms one way.
  EXPECT_GT(clock_.now() - before, sim_ms(100));
}

TEST_F(EndpointTest, RetriesThroughTransientOutage) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  client_.call(counter, "inc");
  offload(counter);

  // 10 ms of radio silence starting now: the first attempt is refused, the
  // re-attempt (timeout 50 ms + backoff 25 ms later) sails through.
  netsim::FaultPlan plan;
  plan.outages.push_back({clock_.now(), clock_.now() + sim_ms(10)});
  link_.set_fault_plan(plan);

  EXPECT_EQ(client_.call(counter, "get").as_int(), 1);
  EXPECT_EQ(client_ep_.stats().timeouts, 1u);
  EXPECT_EQ(client_ep_.stats().retries, 1u);
  EXPECT_EQ(client_ep_.stats().aborted_rpcs, 0u);
  EXPECT_GE(link_.stats().link_down_failures, 1u);
}

TEST_F(EndpointTest, AbortChargesFullRetryBudget) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);

  netsim::FaultPlan plan;
  plan.dead_after = clock_.now();
  link_.set_fault_plan(plan);

  // The offload primed the RTT estimator, so the adaptive timeout (not the
  // fixed 50 ms ceiling) is what each attempt charges. It cannot change
  // during the abort: RTT samples only come from successful round trips.
  const SimDuration eff = client_ep_.effective_timeout();
  EXPECT_LT(eff, kTimeout);
  EXPECT_GE(eff, kMinTimeout);

  const SimTime before = clock_.now();
  EXPECT_THROW(client_.call(counter, "get"), PeerUnavailable);
  // 4 attempts x effective timeout + backoffs 25/50/100 ms; a dead link
  // never grants airtime, so the charge is exactly the retry budget.
  EXPECT_EQ(clock_.now() - before, 4 * eff + sim_ms(25 + 50 + 100));
  EXPECT_EQ(client_ep_.stats().timeouts, 4u);
  EXPECT_EQ(client_ep_.stats().retries, 3u);
  EXPECT_EQ(client_ep_.stats().aborted_rpcs, 1u);
}

TEST_F(EndpointTest, LostResponseIsDedupedNotReExecuted) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);

  // Window opens just after the request leaves and closes well before the
  // re-attempt: the surrogate executes inc once, the reply is lost, and the
  // retry must be served from the reply cache.
  const SimTime t = clock_.now();
  netsim::FaultPlan plan;
  plan.outages.push_back({t + 1, t + sim_ms(40)});
  link_.set_fault_plan(plan);

  EXPECT_EQ(client_.call(counter, "inc").as_int(), 1);
  // The adaptive timeout may schedule several re-attempts inside the outage
  // window; every one of them is answered from the reply cache.
  EXPECT_GE(client_ep_.stats().retries, 1u);
  EXPECT_GE(surrogate_ep_.stats().duplicates_served, 1u);
  // At-most-once: no duplicate incremented again.
  link_.set_fault_plan(netsim::FaultPlan{});
  EXPECT_EQ(client_.call(counter, "get").as_int(), 1);
}

TEST_F(EndpointTest, LocalFallbackCompletesAbortedRpc) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  client_.call(counter, "inc");
  offload(counter);

  // Platform-style recovery at endpoint scale: sever the pair, then
  // repatriate every surviving surrogate object.
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

  netsim::FaultPlan plan;
  plan.dead_after = clock_.now();
  link_.set_fault_plan(plan);

  // The abandoned invoke is transparently re-run against now-local state.
  EXPECT_EQ(client_.call(counter, "inc").as_int(), 2);
  EXPECT_EQ(client_ep_.stats().aborted_rpcs, 1u);
  EXPECT_EQ(client_ep_.stats().recovered_rpcs, 1u);
  EXPECT_TRUE(client_.is_local(counter.id));
  EXPECT_EQ(client_.call(counter, "get").as_int(), 2);
}

TEST_F(EndpointTest, FailedMigrationReinstatesBatchLocally) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  client_.call(counter, "inc");

  netsim::FaultPlan plan;
  plan.dead_after = clock_.now();
  link_.set_fault_plan(plan);

  const ObjectId ids[] = {counter.id};
  EXPECT_THROW(client_ep_.migrate_objects(ids), PeerUnavailable);
  ASSERT_EQ(client_ep_.migrations().size(), 1u);
  EXPECT_FALSE(client_ep_.migrations().back().applied_on_peer);
  // The batch never left: still local, no stubs, state intact.
  EXPECT_TRUE(client_.is_local(counter.id));
  EXPECT_EQ(client_.stub_count(), 0u);
  EXPECT_FALSE(surrogate_.is_local(counter.id));
  EXPECT_EQ(client_.call(counter, "get").as_int(), 1);
}

// A COMMIT the peer has no heap room for adopts nothing: the batch comes
// home whole over the still-live link, and the refusal is traced.
TEST(RefusedCommitTest, FullSurrogateHeapRefusesWholeBatch) {
  const auto registry = make_test_registry();
  SimClock clock;
  netsim::Link link(netsim::LinkParams::wavelan());
  VmConfig small = surrogate_cfg();
  small.heap_capacity = 400;  // 16 Counters (24 B each) fit; 40 do not
  Vm client(client_cfg(), registry, clock);
  Vm surrogate(small, registry, clock);
  Endpoint client_ep(client, link);
  Endpoint surrogate_ep(surrogate, link);
  Endpoint::connect(client_ep, surrogate_ep);

  std::vector<ObjectId> ids;
  for (std::int64_t i = 0; i < 40; ++i) {
    const ObjectRef counter = client.new_object("Counter");
    client.add_root(counter);
    client.put_field(counter, FieldId{0}, Value{i});
    ids.push_back(counter.id);
  }
  EXPECT_THROW(client_ep.migrate_objects(ids), VmError);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(client.is_local(ids[i])) << "object " << i;
    EXPECT_EQ(client.raw_get_field(ids[i], FieldId{0}),
              Value{static_cast<std::int64_t>(i)});
    EXPECT_FALSE(surrogate.knows(ids[i]));
  }
  EXPECT_EQ(client.stub_count(), 0u);
  EXPECT_EQ(surrogate.heap().used(), 0);
  ASSERT_EQ(client_ep.migrations().size(), 1u);
  EXPECT_FALSE(client_ep.migrations().back().committed);
  EXPECT_FALSE(client_ep.migrations().back().applied_on_peer);

  // The link is fine: a batch that fits still migrates.
  EXPECT_GT(client_ep.migrate_objects(std::span(ids).first(8)), 0u);
  EXPECT_TRUE(surrogate.is_local(ids[0]));
  EXPECT_EQ(client.call(ObjectRef{ids[0]}, "inc").as_int(), 1);
}

TEST_F(EndpointTest, AdaptiveTimeoutTracksMeasuredRtt) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  // Unprimed estimator: the effective timeout is the kTimeout ceiling.
  EXPECT_FALSE(client_ep_.rtt_estimator().primed);
  EXPECT_EQ(client_ep_.effective_timeout(), kTimeout);

  offload(counter);
  client_.call(counter, "inc");
  // Round trips primed the estimator; the RTO tracks transport legs only,
  // so on an idle WaveLAN link it sits far below the 50 ms ceiling but
  // never under the floor.
  EXPECT_TRUE(client_ep_.rtt_estimator().primed);
  const SimDuration eff = client_ep_.effective_timeout();
  EXPECT_GE(eff, kMinTimeout);
  EXPECT_LT(eff, kTimeout);

  // Satellite (d) regression: a timed-out attempt must advance the virtual
  // clock by the *effective* timeout, not the fixed ceiling.
  netsim::FaultPlan plan;
  plan.outages.push_back({clock_.now(), clock_.now() + 1});
  link_.set_fault_plan(plan);
  const SimTime before = clock_.now();
  EXPECT_EQ(client_.call(counter, "get").as_int(), 1);
  EXPECT_EQ(client_ep_.stats().timeouts, 1u);
  // One charged timeout + 25 ms backoff + the successful retry's RTT; with
  // the fixed 50 ms charge this lower bound would be violated from above.
  EXPECT_LT(clock_.now() - before, sim_ms(50) + sim_ms(25) + sim_ms(50));
  EXPECT_GE(clock_.now() - before, eff + sim_ms(25));
}

TEST_F(EndpointTest, CorruptFramesAreRejectedNotExecuted) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  client_.call(counter, "inc");
  offload(counter);

  // Every delivery flips one byte: the CRC check must reject every frame,
  // so no request ever executes and the sender exhausts its retry budget.
  netsim::FaultPlan plan;
  plan.corrupt_probability = 1.0;
  link_.set_fault_plan(plan);
  EXPECT_THROW(client_.call(counter, "inc"), PeerUnavailable);
  EXPECT_GE(surrogate_ep_.stats().corrupt_frames_rejected, 1u);
  EXPECT_EQ(client_ep_.stats().timeouts,
            static_cast<std::uint64_t>(kMaxAttempts));

  // The corrupted requests never reached the interpreter.
  link_.set_fault_plan(netsim::FaultPlan{});
  EXPECT_EQ(client_.call(counter, "get").as_int(), 1);
}

TEST_F(EndpointTest, DuplicateDeliveryIsServedFromReplyCache) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);

  // Every message is delivered twice; the second copy of each request hits
  // the at-most-once cache instead of the interpreter.
  netsim::FaultPlan plan;
  plan.duplicate_probability = 1.0;
  link_.set_fault_plan(plan);
  EXPECT_EQ(client_.call(counter, "inc").as_int(), 1);
  EXPECT_EQ(client_.call(counter, "inc").as_int(), 2);
  EXPECT_GE(surrogate_ep_.stats().duplicates_served, 2u);
  EXPECT_EQ(client_ep_.stats().aborted_rpcs, 0u);

  link_.set_fault_plan(netsim::FaultPlan{});
  EXPECT_EQ(client_.call(counter, "get").as_int(), 2);
}

TEST_F(EndpointTest, ReorderedFramesAreFencedBySequence) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);
  client_.call(counter, "inc");  // leaves a retransmittable frame behind

  // Each reordered delivery presents a stale retransmit of the previous
  // frame instead of the fresh one; the sequence fence must discard it and
  // let the retry path converge. p = 0.5 under a fixed seed is deterministic
  // but leaves every call a non-reordered path within its retry budget most
  // of the time; aborted calls are tolerated and bounded below.
  netsim::FaultPlan plan;
  plan.reorder_probability = 0.5;
  plan.chaos_seed = 0xD15C0;
  link_.set_fault_plan(plan);

  int successes = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      client_.call(counter, "inc");
      ++successes;
    } catch (const PeerUnavailable&) {
    }
  }
  EXPECT_GT(successes, 0);
  EXPECT_GE(client_ep_.stats().stale_frames_fenced +
                surrogate_ep_.stats().stale_frames_fenced,
            1u);

  // At-most-once: every increment landed at most once — successes all did;
  // an aborted call may have executed before its reply was displaced.
  link_.set_fault_plan(netsim::FaultPlan{});
  const int value = static_cast<int>(client_.call(counter, "get").as_int());
  EXPECT_GE(value, 1 + successes);
  EXPECT_LE(value, 11);
}

TEST_F(EndpointTest, MigrationTraceRecordsTwoPhaseBoundaries) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  const SimTime before = clock_.now();
  offload(counter);

  ASSERT_EQ(client_ep_.migrations().size(), 1u);
  const TransferTrace& t = client_ep_.migrations().front();
  EXPECT_TRUE(t.committed);
  EXPECT_EQ(t.items, 1u);
  EXPECT_EQ(t.epoch, 2u);  // both sides boot in epoch 1; PREPARE bumped it
  EXPECT_EQ(client_ep_.epoch(), 2u);
  EXPECT_GE(t.begin, before);
  EXPECT_LT(t.begin, t.prepare_acked);
  EXPECT_LT(t.prepare_acked, t.commit_acked);
  EXPECT_LE(t.commit_acked, clock_.now());
}

TEST_F(EndpointTest, AbortedPrepareLeavesNoStagedStateBehind) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  client_.call(counter, "inc");

  // Kill the link for the first migration attempt: PREPARE is lost, the
  // batch is reinstated locally and the aborted migration is traced.
  netsim::FaultPlan plan;
  plan.dead_after = clock_.now();
  link_.set_fault_plan(plan);
  const ObjectId ids[] = {counter.id};
  EXPECT_THROW(client_ep_.migrate_objects(ids), PeerUnavailable);
  ASSERT_EQ(client_ep_.migrations().size(), 1u);
  EXPECT_FALSE(client_ep_.migrations().front().committed);

  // Once the link heals, a fresh migration under a newer epoch succeeds:
  // no stale staging from the aborted attempt can leak into its COMMIT.
  link_.set_fault_plan(netsim::FaultPlan{});
  client_ep_.migrate_objects(ids);
  EXPECT_TRUE(surrogate_.is_local(counter.id));
  EXPECT_TRUE(client_ep_.migrations().back().committed);
  EXPECT_EQ(client_.call(counter, "get").as_int(), 1);
}

// One Counter (value 1) migrated over a fresh client/surrogate pair whose
// link follows `plan`; every run starts at virtual time 0, so a fault-free
// run's trace locates the message boundaries of a faulty one.
struct MigrationRun {
  explicit MigrationRun(const netsim::FaultPlan& plan)
      : registry(make_test_registry()),
        link(netsim::LinkParams::wavelan()),
        client(client_cfg(), registry, clock),
        surrogate(surrogate_cfg(), registry, clock),
        client_ep(client, link),
        surrogate_ep(surrogate, link) {
    Endpoint::connect(client_ep, surrogate_ep);
    counter = client.new_object("Counter");
    client.add_root(counter);
    client.call(counter, "inc");
    link.set_fault_plan(plan);
    const ObjectId ids[] = {counter.id};
    try {
      client_ep.migrate_objects(ids);
    } catch (const PeerUnavailable&) {
      aborted = true;
    }
  }

  std::shared_ptr<vm::ClassRegistry> registry;
  SimClock clock;
  netsim::Link link;
  Vm client;
  Vm surrogate;
  Endpoint client_ep;
  Endpoint surrogate_ep;
  ObjectRef counter;
  bool aborted = false;
};

TEST(MigrationAckLossTest, CommitAppliedButUnackedLeavesBatchOnPeer) {
  const MigrationRun probe{netsim::FaultPlan{}};
  ASSERT_FALSE(probe.aborted);
  ASSERT_EQ(probe.client_ep.migrations().size(), 1u);

  // The link dies just after the PREPARE ack: the COMMIT is delivered and
  // applied, and only its ack is lost.
  netsim::FaultPlan plan;
  plan.dead_after = probe.client_ep.migrations().front().prepare_acked + 1;
  const MigrationRun run{plan};
  ASSERT_TRUE(run.aborted);
  ASSERT_EQ(run.client_ep.migrations().size(), 1u);
  const TransferTrace& t = run.client_ep.migrations().back();
  EXPECT_FALSE(t.committed);
  EXPECT_TRUE(t.applied_on_peer);
  // Nothing is reinstated: the surrogate's copy is authoritative and the
  // client keeps only a stub for recovery to pull back.
  EXPECT_TRUE(run.surrogate.is_local(run.counter.id));
  EXPECT_FALSE(run.client.is_local(run.counter.id));
  EXPECT_EQ(run.client.stub_count(), 1u);
}

TEST_F(EndpointTest, PingProbesPeerLiveness) {
  EXPECT_TRUE(client_ep_.ping());
  EXPECT_EQ(client_ep_.stats().heartbeats_sent, 1u);
  EXPECT_EQ(client_ep_.last_contact(), clock_.now());

  netsim::FaultPlan plan;
  plan.dead_after = clock_.now();
  link_.set_fault_plan(plan);
  EXPECT_FALSE(client_ep_.ping());

  // The link comes back: probing succeeds again (re-admission's precondition).
  link_.set_fault_plan(netsim::FaultPlan{});
  EXPECT_TRUE(client_ep_.ping());
}

TEST_F(EndpointTest, EmptyBatchFlushIsElided) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);

  // A yield point with nothing queued must not put a frame on the air.
  const EndpointStats before = client_ep_.stats();
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
  client_ep_.flush_pending();
  EXPECT_EQ(client_ep_.stats().rpcs_sent, before.rpcs_sent);
  EXPECT_EQ(client_ep_.stats().bytes_sent, before.bytes_sent);
  EXPECT_EQ(client_ep_.stats().batches_sent, before.batches_sent);
}

TEST_F(EndpointTest, SingleOpBatchFlushMatchesLegacyFrameCost) {
  const ObjectRef pair = client_.new_object("Pair");
  client_.add_root(pair);
  offload(pair);

  // Legacy framing: one remote store, one frame, measured in bytes.
  client_ep_.set_batching(false);
  const EndpointStats before_off = client_ep_.stats();
  client_.put_field(pair, FieldId{0}, Value{std::int64_t{41}});
  const std::uint64_t legacy_bytes =
      client_ep_.stats().bytes_sent - before_off.bytes_sent;
  EXPECT_EQ(client_ep_.stats().rpcs_sent - before_off.rpcs_sent, 1u);

  // Batched transport, same store: the lone queued op must flush as a
  // bit-identical legacy frame — no batch envelope, no extra bytes.
  client_ep_.set_batching(true);
  const EndpointStats before_on = client_ep_.stats();
  client_.put_field(pair, FieldId{0}, Value{std::int64_t{42}});
  EXPECT_EQ(client_ep_.pending_ops(), 1u);
  client_ep_.flush_pending();
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
  EXPECT_EQ(client_ep_.stats().rpcs_sent - before_on.rpcs_sent, 1u);
  EXPECT_EQ(client_ep_.stats().bytes_sent - before_on.bytes_sent, legacy_bytes);
  EXPECT_EQ(client_ep_.stats().batches_sent, before_on.batches_sent);
  EXPECT_EQ(client_.get_field(pair, FieldId{0}).as_int(), 42);
}

TEST_F(EndpointTest, QueueFlushesAsOneFrameAtThirtyTwoOps) {
  const ObjectRef pair = client_.new_object("Pair");
  client_.add_root(pair);
  offload(pair);

  const EndpointStats before = client_ep_.stats();
  for (std::int64_t i = 0; i < 31; ++i) {
    client_.put_field(pair, FieldId{0}, Value{i});
  }
  // 31 deferred stores stay queued: nothing on the air yet.
  EXPECT_EQ(client_ep_.pending_ops(), 31u);
  EXPECT_EQ(client_ep_.stats().rpcs_sent, before.rpcs_sent);
  // The 32nd fills the queue, which flushes whole as one multi-op frame.
  client_.put_field(pair, FieldId{0}, Value{std::int64_t{31}});
  EXPECT_EQ(client_ep_.pending_ops(), 0u);
  EXPECT_EQ(client_ep_.stats().rpcs_sent - before.rpcs_sent, 1u);
  EXPECT_EQ(client_ep_.stats().batches_sent - before.batches_sent, 1u);
  EXPECT_EQ(client_ep_.stats().batched_ops - before.batched_ops, 32u);
  EXPECT_EQ(surrogate_.raw_get_field(pair.id, FieldId{0}).as_int(), 31);
}

TEST_F(EndpointTest, SnapshotMissPrefetchesFourGroupMates) {
  std::vector<ObjectId> group;
  for (std::int64_t i = 0; i < 7; ++i) {
    const ObjectRef pair = client_.new_object("Pair");
    client_.add_root(pair);
    client_.put_field(pair, FieldId{0}, Value{i});
    group.push_back(pair.id);
  }
  client_ep_.migrate_objects(group);
  client_ep_.set_prefetch_groups({group});  // ids are minted ascending

  // The miss fetches the demanded object plus the first four mates.
  const EndpointStats before = client_ep_.stats();
  EXPECT_EQ(client_.get_field(ObjectRef{group[0]}, FieldId{0}).as_int(), 0);
  EXPECT_EQ(client_ep_.stats().rpcs_sent - before.rpcs_sent, 1u);
  EXPECT_EQ(client_ep_.stats().snapshots_fetched - before.snapshots_fetched,
            5u);
  EXPECT_EQ(client_ep_.stats().objects_prefetched - before.objects_prefetched,
            4u);
  // Those four read from the snapshot cache; the fifth mate misses.
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(client_.get_field(ObjectRef{group[i]}, FieldId{0}).as_int(),
              static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(client_ep_.stats().rpcs_sent - before.rpcs_sent, 1u);
  EXPECT_EQ(client_ep_.stats().readahead_hits - before.readahead_hits, 4u);
  EXPECT_EQ(client_.get_field(ObjectRef{group[5]}, FieldId{0}).as_int(), 5);
  EXPECT_EQ(client_ep_.stats().rpcs_sent - before.rpcs_sent, 2u);
}

TEST_F(EndpointTest, RtoExpiryVoidsWholeBatchExactlyOnce) {
  const ObjectRef pair = client_.new_object("Pair");
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(pair);
  client_.add_root(counter);
  const ObjectId ids[] = {pair.id, counter.id};
  client_ep_.migrate_objects(ids);

  // Two deferred stores ride the invoke's frame: one 3-op batch.
  client_.put_field(pair, FieldId{0}, Value{std::int64_t{41}});
  client_.put_field(pair, FieldId{1}, Value{"ride"});
  EXPECT_EQ(client_ep_.pending_ops(), 2u);
  const EndpointStats before = client_ep_.stats();

  // The outage swallows the first attempt. The RTO voids the entire frame
  // — one timeout for three ops, not three — and the retry re-sends the
  // batch as a unit; the reply cache keeps the invoke at-most-once.
  netsim::FaultPlan plan;
  plan.outages.push_back({clock_.now(), clock_.now() + sim_ms(10)});
  link_.set_fault_plan(plan);
  EXPECT_EQ(client_.call(counter, "inc").as_int(), 1);

  EXPECT_EQ(client_ep_.stats().timeouts - before.timeouts, 1u);
  EXPECT_EQ(client_ep_.stats().retries - before.retries, 1u);
  EXPECT_EQ(client_ep_.stats().aborted_rpcs, 0u);
  EXPECT_EQ(client_ep_.stats().batches_sent - before.batches_sent, 1u);
  EXPECT_EQ(client_ep_.stats().batched_ops - before.batched_ops, 3u);
  EXPECT_EQ(client_ep_.pending_ops(), 0u);

  // Every op in the voided batch landed exactly once.
  link_.set_fault_plan(netsim::FaultPlan{});
  EXPECT_EQ(client_.get_field(pair, FieldId{0}).as_int(), 41);
  EXPECT_EQ(client_.get_field(pair, FieldId{1}).as_str(), "ride");
  EXPECT_EQ(client_.call(counter, "get").as_int(), 1);
}

TEST_F(EndpointTest, StaleEpochBatchIsDiscardedWholesale) {
  const ObjectRef pair = client_.new_object("Pair");
  client_.add_root(pair);
  offload(pair);

  client_.put_field(pair, FieldId{0}, Value{std::int64_t{7}});
  client_.put_field(pair, FieldId{1}, Value{"x"});
  EXPECT_EQ(client_ep_.pending_ops(), 2u);

  // The surrogate moves to a newer migration epoch, so the client's batch
  // frame carries a stale fencing token. The fence must reject the frame
  // as a unit on every attempt: neither rider may apply.
  surrogate_ep_.advance_epoch();
  const auto fenced_before = surrogate_ep_.stats().stale_frames_fenced;
  EXPECT_THROW(client_.get_field(pair, FieldId{0}), PeerUnavailable);
  EXPECT_GE(surrogate_ep_.stats().stale_frames_fenced - fenced_before,
            static_cast<std::uint64_t>(kMaxAttempts));
  EXPECT_EQ(client_ep_.stats().aborted_rpcs, 1u);
  EXPECT_TRUE(surrogate_.raw_get_field(pair.id, FieldId{0}).is_nil());
  EXPECT_TRUE(surrogate_.raw_get_field(pair.id, FieldId{1}).is_nil());
  // The idempotent riders survived the abort for whoever recovers.
  EXPECT_EQ(client_ep_.pending_ops(), 2u);

  // Once the client re-fences, the same batch goes through exactly once.
  client_ep_.advance_epoch();
  EXPECT_EQ(client_.get_field(pair, FieldId{0}).as_int(), 7);
  EXPECT_EQ(client_.get_field(pair, FieldId{1}).as_str(), "x");
}

// --- frame ownership: sealed frames are shared and immutable -----------------

TEST(FrameOwnershipTest, ReorderedReplyPresentsPreServeResponse) {
  // poke's serve makes a nested call back to the client, then arms a plan
  // that reorders every later delivery — starting with poke's own reply leg.
  // What arrives in its place must be the surrogate's reply from before the
  // serve (tag's), never the reply the serve just produced.
  ChainPair p([](ChainPair& pair) {
    netsim::FaultPlan plan;
    plan.reorder_probability = 1.0;
    pair.link.set_fault_plan(plan);
  });
  const auto before_tag = p.client_ep->stats().bytes_received;
  EXPECT_EQ(p.client->call(p.chain, "tag").as_str(),
            "a reply of distinctive length");
  const auto tag_reply_bytes =
      p.client_ep->stats().bytes_received - before_tag;

  const EndpointStats before = p.client_ep->stats();
  // Every retry's request leg is reordered too, so the call aborts.
  EXPECT_THROW(p.client->call(p.chain, "poke"), PeerUnavailable);
  const EndpointStats& after = p.client_ep->stats();
  // Exactly one reply reached the client: a stale frame the size of tag's
  // reply, which the sequence fence rejected.
  EXPECT_EQ(after.bytes_received - before.bytes_received, tag_reply_bytes);
  EXPECT_EQ(after.stale_frames_fenced - before.stale_frames_fenced, 1u);
  EXPECT_EQ(after.corrupt_frames_rejected, before.corrupt_frames_rejected);
  // The serve and its call-back ran once; no retry executed poke again.
  EXPECT_EQ(p.count(), 1);
}

TEST_F(EndpointTest, CorruptedLegsLeaveSharedFramesIntact) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  offload(counter);

  // Corruption flips a byte of a private copy of the frame in flight. The
  // shared originals stay intact, so every corrupted leg costs exactly one
  // timeout: the next clean attempt retransmits the sealed request and is
  // accepted, or — when the reply leg was hit — is answered from the reply
  // cache. The corruption rate is low enough that no call of this seeded
  // run loses all kMaxAttempts attempts.
  netsim::FaultPlan plan;
  plan.corrupt_probability = 0.2;
  plan.chaos_seed = 0xC0FFEE;
  link_.set_fault_plan(plan);

  constexpr int kCalls = 40;
  for (int i = 1; i <= kCalls; ++i) {
    EXPECT_EQ(client_.call(counter, "inc").as_int(), i);
  }
  const EndpointStats& cs = client_ep_.stats();
  const EndpointStats& ss = surrogate_ep_.stats();
  const std::uint64_t corrupted = link_.stats().messages_corrupted;
  EXPECT_GE(ss.corrupt_frames_rejected, 1u);  // request legs were hit
  EXPECT_GE(cs.corrupt_frames_rejected, 1u);  // reply legs were hit
  EXPECT_EQ(cs.corrupt_frames_rejected + ss.corrupt_frames_rejected,
            corrupted);
  EXPECT_EQ(cs.timeouts, corrupted);
  EXPECT_EQ(cs.aborted_rpcs, 0u);
  // Each rejected reply was re-served from the cache by a later attempt.
  EXPECT_EQ(ss.duplicates_served, cs.corrupt_frames_rejected);
}

TEST(FrameOwnershipTest, DuplicateFrameIsAnsweredFromReplyCache) {
  // poke's serve (nested call-back included) completes, then its reply leg
  // meets a 1 ms outage. The retry is a duplicate of the frame already
  // served: the surrogate must answer it from the reply cache with the
  // sealed reply — not run poke again, and not a frame from the call-back.
  ChainPair p([](ChainPair& pair) {
    netsim::FaultPlan plan;
    const SimTime now = pair.clock.now();
    plan.outages.push_back({now, now + sim_ms(1)});
    pair.link.set_fault_plan(plan);
  });
  const EndpointStats before = p.client_ep->stats();
  EXPECT_EQ(p.client->call(p.chain, "poke").as_int(), 1);
  EXPECT_EQ(p.count(), 1);
  const EndpointStats& cs = p.client_ep->stats();
  EXPECT_EQ(cs.timeouts - before.timeouts, 1u);
  EXPECT_EQ(p.surrogate_ep->stats().duplicates_served, 1u);
  // The one reply that arrived is poke's: [header][ok][int tag][i64].
  EXPECT_EQ(cs.bytes_received - before.bytes_received,
            kFrameHeaderSize + 1 + 1 + sizeof(std::int64_t));
}

TEST_F(EndpointTest, ReverseMigrationBringsObjectBack) {
  const ObjectRef counter = client_.new_object("Counter");
  client_.add_root(counter);
  client_.call(counter, "inc");
  offload(counter);
  EXPECT_FALSE(client_.is_local(counter.id));

  const ObjectId ids[] = {counter.id};
  surrogate_ep_.migrate_objects(ids);
  EXPECT_TRUE(client_.is_local(counter.id));
  EXPECT_FALSE(surrogate_.is_local(counter.id));
  EXPECT_EQ(client_.call(counter, "get").as_int(), 1);
}

}  // namespace
}  // namespace aide::rpc
