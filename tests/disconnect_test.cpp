// Disconnected operation (ISSUE 9): the partition detector's threshold
// behaviour, the coalescing redo log, and the platform-level
// hoard / journal / reconcile / resume lifecycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "netsim/link.hpp"
#include "platform/platform.hpp"
#include "rpc/partition_detector.hpp"
#include "tests/test_util.hpp"
#include "vm/redo_log.hpp"

namespace aide {
namespace {

using aide::test::make_test_registry;
using vm::DisconnectLog;
using vm::ObjectRef;
using vm::RedoEntry;
using vm::Value;

// --- partition detector -------------------------------------------------------

// The rows below assume the detector's thresholds: 3 consecutive timeouts
// and 60 ms of silence.
static_assert(rpc::kSuspectTimeouts == 3);
static_assert(rpc::kSuspectSilence == sim_ms(60));

TEST(PartitionDetectorTest, TableDrivenThresholds) {
  // One event stream per row; `suspected` is evaluated at `ask_at` after the
  // stream has been applied. Transient loss (timeouts broken up by any
  // delivery, or silence shorter than the floor) must never trip; sustained
  // silence plus consecutive timeouts always trips, at a deterministic time.
  struct Event {
    enum Kind : std::uint8_t { delivery, timeout } kind;
    SimTime at;
  };
  struct Case {
    const char* label;
    bool armed;
    std::vector<Event> events;
    SimTime ask_at;
    bool expect;
  };
  const Case cases[] = {
      {"no traffic at all: nothing to suspect",
       true,
       {},
       sim_ms(500),
       false},
      {"transient: every burst of loss ends in a delivery",
       true,
       {{Event::delivery, sim_ms(1)},
        {Event::timeout, sim_ms(10)},
        {Event::timeout, sim_ms(20)},
        {Event::delivery, sim_ms(25)},
        {Event::timeout, sim_ms(90)},
        {Event::timeout, sim_ms(95)},
        {Event::delivery, sim_ms(99)}},
       sim_ms(300),
       false},
      {"timeouts without silence: recent delivery vetoes",
       true,
       {{Event::delivery, sim_ms(100)},
        {Event::timeout, sim_ms(110)},
        {Event::timeout, sim_ms(120)},
        {Event::timeout, sim_ms(130)},
        {Event::timeout, sim_ms(140)}},
       sim_ms(150),  // silence = 50 ms < 60 ms floor
       false},
      {"silence without timeouts: an idle link is not a partition",
       true,
       {{Event::delivery, sim_ms(1)},
        {Event::timeout, sim_ms(400)},
        {Event::timeout, sim_ms(410)}},
       sim_ms(500),  // only 2 consecutive timeouts
       false},
      {"sustained: both axes past threshold",
       true,
       {{Event::delivery, sim_ms(100)},
        {Event::timeout, sim_ms(120)},
        {Event::timeout, sim_ms(140)},
        {Event::timeout, sim_ms(160)}},
       sim_ms(160),  // silence = 60 ms, inclusive edge
       true},
      {"an unarmed detector never trips, whatever the stream",
       false,
       {{Event::timeout, sim_ms(100)},
        {Event::timeout, sim_ms(200)},
        {Event::timeout, sim_ms(300)},
        {Event::timeout, sim_ms(400)}},
       sim_sec(10),
       false},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    rpc::PartitionDetector det;
    if (c.armed) det.arm();
    for (const Event& e : c.events) {
      if (e.kind == Event::delivery) {
        det.note_delivery(e.at);
      } else {
        det.note_timeout(e.at);
      }
    }
    EXPECT_EQ(det.suspected(c.ask_at), c.expect);
  }
}

TEST(PartitionDetectorTest, TripTimeIsDeterministic) {
  // With a delivery at T and timeouts after, the detector trips at exactly
  // T + kSuspectSilence (once the count threshold is met) — not a tick
  // before.
  rpc::PartitionDetector det;
  det.arm();
  det.note_delivery(sim_ms(200));
  det.note_timeout(sim_ms(210));
  det.note_timeout(sim_ms(220));
  det.note_timeout(sim_ms(230));
  EXPECT_EQ(det.consecutive_timeouts(), 3u);
  EXPECT_FALSE(det.suspected(sim_ms(260) - 1));
  EXPECT_TRUE(det.suspected(sim_ms(260)));
  EXPECT_TRUE(det.suspected(sim_sec(5)));
}

TEST(PartitionDetectorTest, ResetClearsBothAxes) {
  rpc::PartitionDetector det;
  det.arm();
  det.note_delivery(sim_ms(1));
  for (int i = 0; i < 5; ++i) det.note_timeout(sim_ms(100 + 10 * i));
  ASSERT_TRUE(det.suspected(sim_ms(200)));
  det.reset(sim_ms(200));  // new connection epoch
  EXPECT_EQ(det.consecutive_timeouts(), 0u);
  EXPECT_FALSE(det.suspected(sim_ms(200)));
  EXPECT_FALSE(det.suspected(sim_ms(259)));
  EXPECT_TRUE(det.suspected(sim_ms(260) + 0) == false);  // count is zero again
}

// --- redo log -----------------------------------------------------------------

constexpr ObjectId kObjA{100};
constexpr ObjectId kObjB{101};
constexpr ObjectId kUnwatched{999};

DisconnectLog watched_log() {
  DisconnectLog log;
  log.watch({kObjA, kObjB});
  return log;
}

TEST(DisconnectLogTest, UnwatchedMutationsAreIgnored) {
  DisconnectLog log = watched_log();
  log.record_field(kUnwatched, 0, Value{1});
  log.record_array(kUnwatched, 3, 7);
  log.record_chars(kUnwatched, 0, "xy");
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.ops_journaled(), 0u);
  EXPECT_TRUE(log.watches(kObjA));
  EXPECT_FALSE(log.watches(kUnwatched));
}

TEST(DisconnectLogTest, FieldCoalescingKeepsLastWriteOnly) {
  DisconnectLog log = watched_log();
  log.record_field(kObjA, 0, Value{std::int64_t{1}});
  log.record_field(kObjA, 0, Value{std::int64_t{2}});
  log.record_field(kObjA, 0, Value{std::int64_t{3}});
  EXPECT_EQ(log.ops_journaled(), 3u);
  EXPECT_EQ(log.ops_coalesced(), 2u);
  const auto order = log.replay_order();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0]->kind, RedoEntry::Kind::field);
  EXPECT_EQ(order[0]->value.as_int(), 3);
}

TEST(DisconnectLogTest, DistinctLocationsDoNotCoalesce) {
  DisconnectLog log = watched_log();
  log.record_field(kObjA, 0, Value{std::int64_t{1}});
  log.record_field(kObjA, 1, Value{std::int64_t{2}});   // different field
  log.record_field(kObjB, 0, Value{std::int64_t{3}});   // different object
  log.record_array(kObjA, 0, 4);                        // different kind
  EXPECT_EQ(log.entries(), 4u);
  EXPECT_EQ(log.ops_coalesced(), 0u);
}

TEST(DisconnectLogTest, CoalescedWriteSplicesToTheBack) {
  // A re-written location must replay in its *latest* position, not its
  // first: [A=1, B=2, A=3] replays as [B=2, A=3].
  DisconnectLog log = watched_log();
  log.record_field(kObjA, 0, Value{std::int64_t{1}});
  log.record_field(kObjB, 0, Value{std::int64_t{2}});
  log.record_field(kObjA, 0, Value{std::int64_t{3}});
  const auto order = log.replay_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0]->obj, kObjB);
  EXPECT_EQ(order[1]->obj, kObjA);
  EXPECT_EQ(order[1]->value.as_int(), 3);
}

TEST(DisconnectLogTest, OverlappingCharsRangesStayOrdered) {
  // Chars writes coalesce only on an exact (offset, length) match. An
  // overlapping-but-different range is a distinct entry, and splice-to-back
  // keeps replay order equal to last-write order, so replaying the log over
  // the pre-disconnect bytes reproduces the final buffer exactly:
  //   "abcd"@0, "xy"@2, "efgh"@0  ->  replay ["xy"@2, "efgh"@0]  ->  "efgh".
  DisconnectLog log = watched_log();
  log.record_chars(kObjA, 0, "abcd");
  log.record_chars(kObjA, 2, "xy");
  log.record_chars(kObjA, 0, "efgh");  // same (offset, len): coalesces
  EXPECT_EQ(log.ops_journaled(), 3u);
  EXPECT_EQ(log.ops_coalesced(), 1u);
  const auto order = log.replay_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0]->key, 2u);
  EXPECT_EQ(order[0]->data, "xy");
  EXPECT_EQ(order[1]->key, 0u);
  EXPECT_EQ(order[1]->data, "efgh");

  // Same offset, different length: NOT the same location.
  log.record_chars(kObjA, 0, "zz");
  EXPECT_EQ(log.entries(), 3u);
  EXPECT_EQ(log.ops_coalesced(), 1u);
}

TEST(DisconnectLogTest, ClearEntriesKeepsWatchSetAndCounters) {
  DisconnectLog log = watched_log();
  log.record_field(kObjA, 0, Value{std::int64_t{1}});
  log.record_field(kObjA, 0, Value{std::int64_t{2}});
  log.clear_entries();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.ops_journaled(), 2u);   // counters survive (stats cursors)
  EXPECT_EQ(log.ops_coalesced(), 1u);
  EXPECT_TRUE(log.watches(kObjA));      // still journaling the same set
  log.record_field(kObjA, 0, Value{std::int64_t{3}});
  EXPECT_EQ(log.entries(), 1u);

  log.reset();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.ops_journaled(), 0u);
  EXPECT_EQ(log.watched_count(), 0u);
  EXPECT_FALSE(log.watches(kObjA));
}

// --- platform lifecycle -------------------------------------------------------

namespace pf = aide::platform;

pf::PlatformConfig disconnect_config() {
  pf::PlatformConfig cfg;
  cfg.client_heap = 8 << 20;
  cfg.surrogate_heap = 64 << 20;
  cfg.auto_offload = false;
  cfg.client_gc_alloc_count_threshold = 8;
  cfg.client_gc_alloc_bytes_divisor = 512;
  cfg.disconnect.enabled = true;
  cfg.probe_interval = sim_ms(10);
  return cfg;
}

// Offloaded fixture with a Counter at 5 that the test forces remote.
ObjectRef offloaded_counter(pf::Platform& p) {
  vm::Vm& client = p.client();
  const ObjectRef device = client.new_object("Device");
  client.add_root(device);
  const ObjectRef counter = client.new_object("Counter");
  client.add_root(counter);
  for (int i = 0; i < 4; ++i) {
    client.call(device, "beep");
    client.call(counter, "inc");
  }
  client.call(counter, "inc");
  const ObjectRef holder = client.new_ref_array(8);
  client.add_root(holder);
  for (int i = 0; i < 4; ++i) {
    const ObjectRef chunk = client.new_char_array(30 * 1024);
    client.put_field(holder, FieldId{static_cast<std::uint32_t>(i)},
                     Value{chunk});
  }
  EXPECT_TRUE(p.offload_now(std::int64_t{1}).has_value());
  if (client.is_local(counter.id)) {
    const ObjectId ids[] = {counter.id};
    p.client_endpoint().migrate_objects(ids);
  }
  EXPECT_FALSE(client.is_local(counter.id));
  return counter;
}

// Allocate enough garbage to force at least one client GC (and with it the
// platform's on_gc housekeeping: reconnect probing while disconnected).
void force_gc(vm::Vm& client, int rounds = 3) {
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 12; ++i) {
      (void)client.new_object("Pair");
    }
  }
}

TEST(PlatformDisconnectTest, OutageHoardsJournalsReconcilesAndResumes) {
  auto cfg = disconnect_config();
  // The outage must outlive the whole detect-and-journal phase: invocation
  // exits probe the link, and a probe that lands after the outage ends
  // reconciles immediately (fast resume), collapsing the observable window.
  cfg.fault_plan.outages.push_back({sim_sec(1), sim_ms(2600)});
  pf::Platform p(make_test_registry(), cfg);
  vm::Vm& client = p.client();
  const ObjectRef counter = offloaded_counter(p);
  ASSERT_LT(p.clock().now(), sim_sec(1));
  const std::size_t surrogate_objects = p.surrogate().heap().object_count();
  ASSERT_GT(surrogate_objects, 0u);

  client.work(sim_ms(1500));  // into the outage
  // The first remote touch exhausts its retries, the detector trips, and the
  // platform enters disconnected mode instead of declaring the surrogate
  // dead; the operation itself completes against the hoarded replica.
  EXPECT_EQ(client.call(counter, "get").as_int(), 5);
  ASSERT_TRUE(p.disconnected());
  EXPECT_EQ(p.link_state(), pf::LinkState::disconnected);
  EXPECT_FALSE(p.surrogate_dead());
  EXPECT_TRUE(p.failures().empty());
  ASSERT_EQ(p.disconnects().size(), 1u);
  EXPECT_EQ(p.disconnects()[0].objects_hoarded, surrogate_objects);
  EXPECT_GT(p.disconnects()[0].bytes_hoarded, 0u);
  EXPECT_FALSE(p.disconnects()[0].resumed);
  // The surrogate keeps its originals — they are the replay target.
  EXPECT_EQ(p.surrogate().heap().object_count(), surrogate_objects);
  EXPECT_TRUE(client.is_local(counter.id));
  EXPECT_EQ(p.client_endpoint().stats().disconnects_detected, 1u);

  // Disconnected execution: local, journaled, coalesced.
  for (int i = 0; i < 3; ++i) {
    client.call(counter, "inc");
  }
  EXPECT_EQ(client.call(counter, "get").as_int(), 8);
  EXPECT_GE(p.disconnect_log().ops_journaled(), 3u);
  EXPECT_GE(p.disconnect_log().ops_coalesced(), 2u);  // same (obj, field)
  EXPECT_GE(p.disconnect_log().entries(), 1u);

  // Past the outage a GC tick probes the link, reconciles, and resumes.
  client.work(sim_sec(1));
  force_gc(client);
  ASSERT_FALSE(p.disconnected());
  ASSERT_EQ(p.client_endpoint().reconciles().size(), 1u);
  const rpc::TransferTrace& t = p.client_endpoint().reconciles()[0];
  EXPECT_TRUE(t.committed);
  EXPECT_TRUE(t.applied_on_peer);
  EXPECT_GE(t.items, 1u);
  EXPECT_LT(t.begin, t.prepare_acked);
  EXPECT_LT(t.prepare_acked, t.commit_acked);
  EXPECT_TRUE(p.disconnects()[0].resumed);
  EXPECT_EQ(p.disconnects()[0].reconciles, 1u);
  EXPECT_GE(p.disconnects()[0].entries_replayed, 1u);

  // Stats made it to the endpoint.
  const auto& stats = p.client_endpoint().stats();
  EXPECT_EQ(stats.reconciles_completed, 1u);
  EXPECT_GE(stats.reconcile_replayed_ops, 1u);
  EXPECT_GE(stats.ops_journaled, 3u);
  EXPECT_GE(stats.journal_coalesced, 2u);

  // The replica was dropped; the surrogate's replayed original is
  // authoritative and remotely reachable again.
  EXPECT_FALSE(client.is_local(counter.id));
  const vm::Object* remote = p.surrogate().find_object(counter.id);
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->fields[0].as_int(), 8);
  EXPECT_EQ(client.call(counter, "get").as_int(), 8);
  EXPECT_EQ(client.call(counter, "inc").as_int(), 9);
  EXPECT_TRUE(p.disconnect_log().empty());
}

TEST(PlatformDisconnectTest, PermanentOutageRunsDisconnectedForever) {
  auto cfg = disconnect_config();
  cfg.fault_plan.outages.push_back({sim_sec(1), netsim::FaultPlan::kNever});
  pf::Platform p(make_test_registry(), cfg);
  vm::Vm& client = p.client();
  const ObjectRef counter = offloaded_counter(p);

  client.work(sim_sec(2));
  EXPECT_EQ(client.call(counter, "get").as_int(), 5);
  ASSERT_TRUE(p.disconnected());
  for (int i = 0; i < 3; ++i) client.call(counter, "inc");

  // Probes keep failing; the platform stays disconnected but fully usable.
  client.work(sim_sec(5));
  force_gc(client);
  EXPECT_TRUE(p.disconnected());
  EXPECT_FALSE(p.surrogate_dead());
  EXPECT_TRUE(p.client_endpoint().reconciles().empty());
  EXPECT_FALSE(p.disconnects()[0].resumed);
  EXPECT_GE(p.disconnect_log().entries(), 1u);  // log retained for later
  EXPECT_EQ(client.call(counter, "get").as_int(), 8);
}

TEST(PlatformDisconnectTest, RepeatedFlapDisconnectsAndResumesEachTime) {
  auto cfg = disconnect_config();
  // Down 1 s, up 2 s, repeating from t = 1 s. The down window has to cover
  // the whole detection sequence — ~375 ms of timeouts and backoff to abort,
  // plus the teardown's own flush retries — or the invocation-exit probe
  // lands after the outage and reconciles before the test can look.
  cfg.fault_plan =
      netsim::make_flap_plan(sim_sec(1), sim_sec(1), sim_sec(2));
  pf::Platform p(make_test_registry(), cfg);
  vm::Vm& client = p.client();
  const ObjectRef counter = offloaded_counter(p);

  int expected = 5;
  for (int lap = 0; lap < 2; ++lap) {
    // Walk into the next down window and touch remote state.
    const SimTime down = sim_sec(1) + lap * (sim_sec(1) + sim_sec(2));
    if (p.clock().now() < down + sim_ms(50)) {
      client.work(down + sim_ms(50) - p.clock().now());
    }
    client.call(counter, "inc");
    ++expected;
    EXPECT_TRUE(p.disconnected()) << "lap " << lap;
    // Walk into the following up window and let a GC tick reconcile.
    client.work(down + sim_sec(1) + sim_ms(100) - p.clock().now());
    force_gc(client);
    EXPECT_FALSE(p.disconnected()) << "lap " << lap;
    EXPECT_EQ(client.call(counter, "get").as_int(), expected);
    ++expected;  // `get`+`inc` below keeps state moving between laps
    client.call(counter, "inc");
  }
  EXPECT_EQ(p.disconnects().size(), 2u);
  EXPECT_TRUE(p.disconnects()[0].resumed);
  EXPECT_TRUE(p.disconnects()[1].resumed);
  EXPECT_EQ(p.client_endpoint().stats().disconnects_detected, 2u);
  EXPECT_EQ(p.client_endpoint().stats().reconciles_completed, 2u);
}

TEST(PlatformDisconnectTest, ArmedButFaultFreePolicyChangesNothing) {
  // The detector is passive: with the policy armed but no fault injected,
  // the run is byte-identical to the same run with the policy off.
  auto armed = disconnect_config();
  auto off = disconnect_config();
  off.disconnect.enabled = false;

  std::uint64_t results[2];
  SimTime ends[2];
  rpc::EndpointStats stats[2];
  int idx = 0;
  for (auto* cfg : {&armed, &off}) {
    pf::Platform p(make_test_registry(), *cfg);
    const ObjectRef counter = offloaded_counter(p);
    for (int i = 0; i < 6; ++i) p.client().call(counter, "inc");
    results[idx] = static_cast<std::uint64_t>(
        p.client().call(counter, "get").as_int());
    ends[idx] = p.clock().now();
    stats[idx] = p.client_endpoint().stats();
    ++idx;
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(ends[0], ends[1]);
  EXPECT_TRUE(stats[0] == stats[1]);
  EXPECT_EQ(stats[0].disconnects_detected, 0u);
  EXPECT_EQ(stats[0].ops_journaled, 0u);
}

TEST(PlatformDisconnectTest, DisabledPolicyStillTearsDownOnFailure) {
  // Regression guard on the pre-existing path: with the policy off, a dead
  // link still produces the PR 1 teardown (surrogate dead, state reclaimed).
  auto cfg = disconnect_config();
  cfg.disconnect.enabled = false;
  cfg.fault_plan.outages.push_back({sim_sec(1), netsim::FaultPlan::kNever});
  pf::Platform p(make_test_registry(), cfg);
  vm::Vm& client = p.client();
  const ObjectRef counter = offloaded_counter(p);
  client.work(sim_sec(2));
  EXPECT_EQ(client.call(counter, "get").as_int(), 5);
  EXPECT_TRUE(p.surrogate_dead());
  EXPECT_FALSE(p.disconnected());
  EXPECT_EQ(p.failures().size(), 1u);
  EXPECT_TRUE(p.disconnects().empty());
}

// --- proactive recall on a degrading link -------------------------------------

TEST(PlatformRecallTest, DegradingLinkRecallsPrefetchEligibleObjects) {
  // Run a real application (100% effect-IR coverage, so verify() proves
  // prefetch-eligible classes) with a degrade threshold any real RTT
  // exceeds: once the estimator primes, the next GC tick recalls the
  // eligible working set while the link still works.
  const auto& app = apps::app_by_name("Dia");
  apps::AppParams params;
  params.image_size = 64;
  params.layers = 3;
  params.filter_passes = 3;

  pf::PlatformConfig cfg;
  cfg.client_heap = 64 << 20;
  cfg.surrogate_heap = 64 << 20;
  cfg.auto_offload = false;
  cfg.client_gc_alloc_count_threshold = 4;
  cfg.client_gc_alloc_bytes_divisor = 512;
  cfg.disconnect.enabled = true;
  cfg.disconnect.degrade_rtt = 1;  // 1 ns: any primed estimate trips it

  std::uint64_t baseline = 0;
  {
    auto reg = std::make_shared<vm::ClassRegistry>();
    app.register_classes(*reg);
    SimClock clock;
    vm::VmConfig vcfg;
    vcfg.heap_capacity = 64 << 20;
    vm::Vm vm(vcfg, reg, clock);
    baseline = app.run(vm, params);
  }

  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  pf::Platform p(reg, cfg);
  struct Offloader : vm::VmHooks {
    explicit Offloader(pf::Platform& p) : p_(p) {}
    void on_gc(NodeId node, const vm::GcReport&) override {
      if (node != NodeId{1} || ++cycles_ != 2) return;
      if (!p_.offloaded()) p_.offload_now(std::int64_t{1});
    }
    pf::Platform& p_;
    int cycles_ = 0;
  } offloader(p);
  p.client().add_hooks(&offloader);
  const std::uint64_t checksum = app.run(p.client(), params);
  p.client().remove_hooks(&offloader);

  EXPECT_EQ(checksum, baseline);
  ASSERT_TRUE(p.offloaded());
  ASSERT_GE(p.recalls().size(), 1u);
  EXPECT_GT(p.recalls()[0].objects, 0u);
  EXPECT_GT(p.recalls()[0].bytes, 0u);
  // A recall is a migration home, not a teardown: the platform stays
  // connected and the surrogate stays alive.
  EXPECT_FALSE(p.disconnected());
  EXPECT_FALSE(p.surrogate_dead());
}

TEST(PlatformRecallTest, NoDegradeThresholdMeansNoRecalls) {
  auto cfg = disconnect_config();  // degrade_rtt = 0: proactive path off
  pf::Platform p(make_test_registry(), cfg);
  const ObjectRef counter = offloaded_counter(p);
  for (int i = 0; i < 8; ++i) p.client().call(counter, "inc");
  force_gc(p.client());
  EXPECT_TRUE(p.recalls().empty());
}

}  // namespace
}  // namespace aide
