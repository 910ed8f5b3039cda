// Deterministic chaos harness (ISSUE 4 tentpole acceptance).
//
// Two families of adversarial schedules, both derived from a fault-free probe
// run (exact, because the platform is fully deterministic under virtual
// time):
//
//   * ChaosScheduleTest — 25 seeded message-level chaos schedules (loss,
//     reply-leg loss, corruption, duplication, reordering, periodic outages,
//     degraded bandwidth, and combinations) crossed with the five paper
//     applications. Every cell must produce the standalone checksum
//     byte-for-byte, with retry traffic bounded by the per-RPC retry budget.
//
//   * CrashPointSweepTest — the surrogate link is killed at every message
//     boundary of the two-phase migration protocol (PREPARE refused, PREPARE
//     in flight, mid-transfer, COMMIT refused, COMMIT applied but unacked,
//     and immediately after COMMIT). Each kill point must roll back or roll
//     forward to a state whose final output is byte-identical to the
//     standalone run, with no stub left dangling on the client.
//
// This binary owns its main(): `chaos_test --smoke` runs a 5-schedule subset
// (the ctest and sanitizer-job configuration); the bare binary runs the full
// 25-schedule sweep, which CI's normal job runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "apps/apps.hpp"
#include "bench/forced_offload.hpp"
#include "netsim/link.hpp"
#include "platform/platform.hpp"
#include "vm/vm.hpp"

namespace aide::chaos {

bool g_smoke = false;

namespace {

constexpr std::size_t kFullSchedules = 25;
constexpr std::size_t kSmokeSchedules = 5;

const char* const kApps[] = {"JavaNote", "Dia", "Biomer", "Voxel", "Tracer"};

std::size_t schedule_count() {
  return g_smoke ? kSmokeSchedules : kFullSchedules;
}

struct Outcome {
  std::uint64_t checksum = 0;
  bool offloaded = false;
  bool dead = false;
  SimTime end = 0;
  std::size_t failures = 0;
  std::size_t objects_reclaimed = 0;
  std::size_t stub_count = 0;
  rpc::TransferTrace migration;
  rpc::EndpointStats client;
  rpc::EndpointStats surrogate;
  netsim::LinkStats link;
  // Disconnected-operation outcome (populated only when the run armed the
  // DisconnectPolicy; all defaults otherwise).
  bool disconnected_at_end = false;
  std::size_t disconnects = 0;
  bool first_resumed = false;
  std::size_t reconcile_count = 0;
  rpc::TransferTrace reconcile;  // first reconcile attempt's trace
  std::size_t log_entries_left = 0;
};

Outcome run(const apps::AppInfo& app, const apps::AppParams& params,
            const netsim::FaultPlan& plan, bool disconnect = false,
            SimDuration heartbeat = 0) {
  auto cfg = bench::forced_offload_config();
  cfg.fault_plan = plan;
  if (disconnect) {
    cfg.disconnect.enabled = true;
    cfg.probe_interval = sim_ms(20);
  }
  // Several apps run long stretches with zero demanded wire traffic (reads
  // served from snapshots, writes deferred), so a quiet-window outage is
  // invisible to the detector until something transmits. The fault-bearing
  // disconnect families keep a heartbeat running so detection does not
  // depend on the app's I/O pattern; the inertness test passes 0 to assert
  // zero-traffic stillness.
  cfg.heartbeat.idle_after = heartbeat;
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::Platform p(reg, cfg);
  bench::ForcedOffload forced(p);
  p.client().add_hooks(&forced);
  Outcome o;
  o.checksum = app.run(p.client(), params);
  p.client().remove_hooks(&forced);
  o.offloaded = p.offloaded();
  o.dead = p.surrogate_dead();
  o.end = p.elapsed();
  o.failures = p.failures().size();
  if (!p.failures().empty()) {
    o.objects_reclaimed = p.failures().front().objects_reclaimed;
  }
  o.stub_count = p.client().stub_count();
  if (!p.client_endpoint().migrations().empty()) {
    o.migration = p.client_endpoint().migrations().front();
  }
  o.client = p.client_endpoint().stats();
  o.surrogate = p.surrogate_endpoint().stats();
  o.link = p.link().stats();
  o.disconnected_at_end = p.disconnected();
  o.disconnects = p.disconnects().size();
  if (!p.disconnects().empty()) {
    o.first_resumed = p.disconnects().front().resumed;
  }
  o.reconcile_count = p.client_endpoint().reconciles().size();
  if (!p.client_endpoint().reconciles().empty()) {
    o.reconcile = p.client_endpoint().reconciles().front();
  }
  o.log_entries_left = p.disconnect_log().entries();
  return o;
}

// The 25 seeded schedules, indexed 0..24. Five families, escalating with
// each lap; the probe run anchors the time-targeted families to this app's
// actual offload timeline.
netsim::FaultPlan schedule(std::size_t i, const Outcome& probe) {
  const std::size_t lap = i / 5;
  netsim::FaultPlan plan;
  switch (i % 5) {
    case 0:  // plain message loss, both legs
      plan.drop_probability = 0.02 + 0.015 * static_cast<double>(lap);
      plan.drop_seed = 0x1000 + i;
      break;
    case 1:  // acknowledgement loss only (at-most-once pressure)
      plan.reply_drop_probability = 0.10 + 0.04 * static_cast<double>(lap);
      plan.drop_seed = 0x2000 + i;
      break;
    case 2:  // the chaos trio: corruption, duplication, reordering
      plan.corrupt_probability = 0.02 + 0.01 * static_cast<double>(lap);
      plan.duplicate_probability = 0.04 + 0.02 * static_cast<double>(lap);
      plan.reorder_probability = 0.03 + 0.01 * static_cast<double>(lap);
      plan.chaos_seed = 0x3000 + i;
      break;
    case 3:  // repeating radio blackouts across the whole run
      plan.outage_period = sim_ms(150) + sim_ms(35) * static_cast<int>(lap);
      plan.outage_duration = sim_ms(4) + sim_ms(2) * static_cast<int>(lap);
      plan.outage_phase = probe.migration.begin + sim_ms(3) * static_cast<int>(i);
      break;
    default:  // kitchen sink: loss + chaos + halved bandwidth after offload
      plan.drop_probability = 0.02;
      plan.drop_seed = 0x5000 + i;
      plan.corrupt_probability = 0.015;
      plan.duplicate_probability = 0.03;
      plan.reorder_probability = 0.02;
      plan.chaos_seed = 0x6000 + i;
      plan.degraded.push_back({probe.migration.begin, probe.end, 0.5});
      break;
  }
  return plan;
}

// Satellite family (batched transport): the chaos quartet aimed squarely at
// multi-op frames. Rates run hotter than the base families so nearly every
// run corrupts, drops, duplicates, or reorders at least one batch frame;
// batch atomicity means the application checksum still cannot move — a
// damaged batch is voided and retried as a unit, never partially applied.
netsim::FaultPlan batch_schedule(std::size_t i) {
  const auto lap = static_cast<double>(i / 4);
  netsim::FaultPlan plan;
  switch (i % 4) {
    case 0:  // corrupted batch frames (CRC rejects the whole frame)
      plan.corrupt_probability = 0.05 + 0.02 * lap;
      plan.chaos_seed = 0xBA7C0 + i;
      break;
    case 1:  // dropped batch frames (RTO voids the whole batch)
      plan.drop_probability = 0.05 + 0.02 * lap;
      plan.drop_seed = 0xBA7C1 + i;
      break;
    case 2:  // reordered frames (seq/epoch fence discards stale batches)
      plan.reorder_probability = 0.06 + 0.02 * lap;
      plan.chaos_seed = 0xBA7C2 + i;
      break;
    default:  // duplicated frames (reply cache dedups re-delivered batches)
      plan.duplicate_probability = 0.08 + 0.04 * lap;
      plan.chaos_seed = 0xBA7C3 + i;
      break;
  }
  return plan;
}

class BatchedFrameChaosTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchedFrameChaosTest, DamagedMultiOpFramesRollBackOrRetryAtomically) {
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);

  const Outcome probe = run(app, params, netsim::FaultPlan{});
  ASSERT_TRUE(probe.offloaded);
  ASSERT_EQ(probe.checksum, expected);
  // The workload genuinely puts multi-op frames on the air; otherwise this
  // family would be testing nothing beyond the base schedules.
  const std::uint64_t probe_batches =
      probe.client.batches_sent + probe.surrogate.batches_sent;
  ASSERT_GT(probe_batches, 0u);

  const std::size_t n = g_smoke ? 4 : 8;
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("batch schedule " + std::to_string(i));
    const Outcome o = run(app, params, batch_schedule(i));
    // No partial application: a batch that executes at all executes whole,
    // so the output is byte-identical whatever happened to its frames.
    EXPECT_EQ(o.checksum, expected);
    EXPECT_LE(o.failures, 1u);
    if (o.dead) {
      EXPECT_EQ(o.stub_count, 0u);
    }
    // Batching stays engaged under chaos — damage must not silently
    // degrade the transport to per-op framing.
    EXPECT_GT(o.client.batches_sent + o.surrogate.batches_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, BatchedFrameChaosTest,
                         ::testing::ValuesIn(kApps));

class ChaosScheduleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosScheduleTest, EverySeededScheduleKeepsOutputByteIdentical) {
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);

  const Outcome probe = run(app, params, netsim::FaultPlan{});
  ASSERT_TRUE(probe.offloaded);
  ASSERT_TRUE(probe.migration.committed);
  ASSERT_EQ(probe.checksum, expected);

  const int per_rpc_retries = rpc::kMaxAttempts - 1;
  for (std::size_t i = 0; i < schedule_count(); ++i) {
    SCOPED_TRACE("schedule " + std::to_string(i));
    const Outcome o = run(app, params, schedule(i, probe));
    // The transparency requirement, extended across every chaos mode.
    EXPECT_EQ(o.checksum, expected);
    // At most one surrogate loss; when the run ends degraded, recovery must
    // have repatriated everything (no dangling stub). A surviving surrogate
    // legitimately keeps its offloaded objects (and their client stubs).
    EXPECT_LE(o.failures, 1u);
    if (o.dead) {
      EXPECT_EQ(o.stub_count, 0u);
    }
    // Retry traffic is bounded by the per-RPC retry budget.
    EXPECT_LE(o.client.retries,
              o.client.rpcs_sent * static_cast<std::uint64_t>(per_rpc_retries));
    EXPECT_LE(o.surrogate.retries,
              o.surrogate.rpcs_sent *
                  static_cast<std::uint64_t>(per_rpc_retries));
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, ChaosScheduleTest, ::testing::ValuesIn(kApps));

TEST(ChaosDeterminismTest, SameScheduleReproducesIdenticalStatistics) {
  const auto& app = apps::app_by_name("Dia");
  const auto params = bench::small_app_params();
  const Outcome probe = run(app, params, netsim::FaultPlan{});
  ASSERT_TRUE(probe.offloaded);

  const netsim::FaultPlan plan = schedule(7, probe);  // chaos-trio family
  const Outcome a = run(app, params, plan);
  const Outcome b = run(app, params, plan);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.end, b.end);
  EXPECT_TRUE(a.link == b.link);
  EXPECT_TRUE(a.client == b.client);
  EXPECT_TRUE(a.surrogate == b.surrogate);
}

class CrashPointSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CrashPointSweepTest, LinkDeathAtEveryMigrationBoundaryIsConsistent) {
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);

  const Outcome probe = run(app, params, netsim::FaultPlan{});
  ASSERT_TRUE(probe.offloaded);
  const rpc::TransferTrace& t = probe.migration;
  ASSERT_TRUE(t.committed);
  ASSERT_LT(t.begin, t.prepare_acked);
  ASSERT_LT(t.prepare_acked, t.commit_acked);

  // What the kill point must leave behind:
  //   rolled_back     — the batch never left the client; nothing to reclaim.
  //   adopted_unacked — the surrogate adopted the staged batch but the ack
  //                     died; the initiator reports the migration aborted and
  //                     recovery pulls the adopted objects back.
  //   completed       — the migration finished; later death is an ordinary
  //                     mid-invoke failure handled by recovery.
  enum class Expect { rolled_back, adopted_unacked, completed };
  struct KillPoint {
    const char* label;
    SimTime at;
    Expect expect;
  };
  const KillPoint points[] = {
      {"PREPARE refused at send", t.begin, Expect::rolled_back},
      {"PREPARE in flight", t.begin + 1, Expect::rolled_back},
      {"mid-transfer", t.begin + (t.prepare_acked - t.begin) / 2,
       Expect::rolled_back},
      {"COMMIT refused at send", t.prepare_acked, Expect::rolled_back},
      {"COMMIT applied but unacked", t.prepare_acked + 1,
       Expect::adopted_unacked},
      {"immediately after COMMIT", t.commit_acked, Expect::completed},
      {"one tick after COMMIT", t.commit_acked + 1, Expect::completed},
  };
  const std::size_t n_points =
      g_smoke ? 4 : sizeof(points) / sizeof(points[0]);

  for (std::size_t i = 0; i < n_points; ++i) {
    const KillPoint& kp = points[i];
    SCOPED_TRACE(kp.label);
    netsim::FaultPlan plan;
    plan.dead_after = kp.at;
    const Outcome o = run(app, params, plan);
    // Byte-identical output from every crash point: the two-phase protocol
    // never leaves an object half-migrated or doubly-owned.
    EXPECT_EQ(o.checksum, expected);
    EXPECT_TRUE(o.dead);
    EXPECT_EQ(o.failures, 1u);
    EXPECT_EQ(o.stub_count, 0u);
    switch (kp.expect) {
      case Expect::rolled_back:
        EXPECT_FALSE(o.offloaded);
        EXPECT_FALSE(o.migration.committed);
        EXPECT_EQ(o.objects_reclaimed, 0u);
        break;
      case Expect::adopted_unacked:
        EXPECT_FALSE(o.offloaded);
        EXPECT_FALSE(o.migration.committed);
        EXPECT_GT(o.objects_reclaimed, 0u);
        break;
      case Expect::completed:
        EXPECT_TRUE(o.offloaded);
        EXPECT_TRUE(o.migration.committed);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, CrashPointSweepTest, ::testing::ValuesIn(kApps));

// --- disconnected operation (ISSUE 9) ----------------------------------------
//
// Four further chaos families, all with the DisconnectPolicy armed: a long
// outage at every migration boundary, a repeating flap schedule, permanent
// death after a partial reconcile (the reconcile crash-point sweep below),
// and a reconnect window landing mid-reconcile (a second outage spliced into
// the reconcile's own timeline). The invariant is unchanged: byte-identical
// application output, never a torn-down surrogate, never a lost or
// double-applied redo entry.

class DisconnectChaosTest : public ::testing::TestWithParam<const char*> {};

// Heartbeat idle threshold shared by every fault-bearing disconnect family.
constexpr SimDuration kBeat = sim_ms(100);

TEST_P(DisconnectChaosTest, ArmedPolicyIsInertOnAFaultFreeRun) {
  // The partition detector is passive: arming it without any fault must not
  // move a single byte of the schedule.
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const Outcome plain = run(app, params, netsim::FaultPlan{});
  const Outcome armed = run(app, params, netsim::FaultPlan{}, true);
  EXPECT_EQ(armed.checksum, plain.checksum);
  EXPECT_EQ(armed.end, plain.end);
  EXPECT_TRUE(armed.client == plain.client);
  EXPECT_TRUE(armed.surrogate == plain.surrogate);
  EXPECT_TRUE(armed.link == plain.link);
  EXPECT_EQ(armed.disconnects, 0u);
}

TEST_P(DisconnectChaosTest, LongOutageAtEveryMigrationBoundary) {
  // A 500 ms blackout — far past the retry budget — opening at each
  // two-phase migration boundary. Whatever the protocol was doing, the
  // platform must hoard, run disconnected, reconcile when the radio
  // returns, and finish byte-identical, without ever declaring the
  // surrogate dead.
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);
  const Outcome probe = run(app, params, netsim::FaultPlan{}, true, kBeat);
  ASSERT_TRUE(probe.offloaded);
  ASSERT_EQ(probe.checksum, expected);
  ASSERT_EQ(probe.disconnects, 0u);
  const rpc::TransferTrace& m = probe.migration;

  const SimTime points[] = {
      m.begin,
      m.begin + 1,
      m.begin + (m.prepare_acked - m.begin) / 2,
      m.prepare_acked + 1,
      m.commit_acked + 1,
  };
  const std::size_t n = g_smoke ? 2 : sizeof(points) / sizeof(points[0]);
  std::size_t episodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("outage at migration point " + std::to_string(i));
    netsim::FaultPlan plan;
    plan.outages.push_back({points[i], points[i] + sim_ms(500)});
    const Outcome o = run(app, params, plan, true, kBeat);
    EXPECT_EQ(o.checksum, expected);
    EXPECT_FALSE(o.dead);
    EXPECT_EQ(o.failures, 0u);
    EXPECT_FALSE(o.disconnected_at_end);
    // A boundary outage that only becomes observable late in the window can
    // legitimately be ridden out by the retry envelope (transient, not
    // sustained); every episode that did disconnect must end resumed.
    if (o.disconnects > 0) {
      EXPECT_TRUE(o.first_resumed);
    }
    episodes += o.disconnects;
  }
  // At most one of the boundary points may be absorbed as transient.
  EXPECT_GE(episodes, n - 1);
}

TEST_P(DisconnectChaosTest, RepeatedFlapDisconnectsAndReconcilesEachLap) {
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);
  const Outcome probe = run(app, params, netsim::FaultPlan{}, true, kBeat);
  ASSERT_TRUE(probe.offloaded);

  // Down 400 ms, up 1.5 s, repeating from just after the offload commits.
  const netsim::FaultPlan plan = netsim::make_flap_plan(
      probe.migration.commit_acked + 1, sim_ms(400), sim_ms(1500));
  const Outcome o = run(app, params, plan, true, kBeat);
  EXPECT_EQ(o.checksum, expected);
  EXPECT_FALSE(o.dead);
  EXPECT_EQ(o.failures, 0u);
  EXPECT_GE(o.disconnects, 1u);
  EXPECT_TRUE(o.first_resumed);
  // Every disconnect lap that resumed did so through a completed reconcile.
  EXPECT_GE(o.client.reconciles_completed, 1u);
  EXPECT_GE(o.client.ops_journaled, o.client.reconcile_replayed_ops);
}

TEST(DisconnectDeterminismTest, SameFlapScheduleReproducesIdenticalRuns) {
  const auto& app = apps::app_by_name("Dia");
  const auto params = bench::small_app_params();
  const Outcome probe = run(app, params, netsim::FaultPlan{}, true, kBeat);
  ASSERT_TRUE(probe.offloaded);
  const netsim::FaultPlan plan = netsim::make_flap_plan(
      probe.migration.commit_acked + 1, sim_ms(400), sim_ms(1500));
  const Outcome a = run(app, params, plan, true, kBeat);
  const Outcome b = run(app, params, plan, true, kBeat);
  ASSERT_GE(a.disconnects, 1u);  // the schedule genuinely partitions
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.disconnects, b.disconnects);
  EXPECT_EQ(a.reconcile_count, b.reconcile_count);
  EXPECT_EQ(a.log_entries_left, b.log_entries_left);
  EXPECT_TRUE(a.link == b.link);
  EXPECT_TRUE(a.client == b.client);
  EXPECT_TRUE(a.surrogate == b.surrogate);
}

class ReconcileCrashPointSweepTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ReconcileCrashPointSweepTest, DeathAtEveryReconcileBoundary) {
  // Exactly-once acceptance: the link dies for good at every boundary of the
  // reconcile PREPARE/COMMIT exchange. Before the COMMIT lands the log must
  // survive for a later retry; once it lands it must never replay again —
  // and in every case the application, which finishes on the hoarded
  // replicas, produces the standalone output byte-for-byte.
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);
  const Outcome probe = run(app, params, netsim::FaultPlan{}, true, kBeat);
  ASSERT_TRUE(probe.offloaded);

  // Disconnect probe: one finite outage after the offload commits gives a
  // clean disconnect -> journal -> reconcile -> resume episode whose trace
  // anchors the kill points.
  netsim::FaultPlan outage;
  // Long enough disconnected that even the slowest-writing app journals at
  // least one watched mutation before the link returns.
  outage.outages.push_back({probe.migration.commit_acked + 1,
                            probe.migration.commit_acked + 1 + sim_ms(1500)});
  const Outcome dprobe = run(app, params, outage, true, kBeat);
  ASSERT_EQ(dprobe.checksum, expected);
  ASSERT_GE(dprobe.disconnects, 1u);
  ASSERT_TRUE(dprobe.first_resumed);
  ASSERT_GE(dprobe.reconcile_count, 1u);
  const rpc::TransferTrace& t = dprobe.reconcile;
  ASSERT_TRUE(t.committed);
  ASSERT_TRUE(t.applied_on_peer);
  ASSERT_GE(t.items, 1u);
  ASSERT_LT(t.begin, t.prepare_acked);
  ASSERT_LT(t.prepare_acked, t.commit_acked);

  enum class Expect { not_applied, applied_unacked, completed };
  struct KillPoint {
    const char* label;
    SimTime at;
    Expect expect;
  };
  const KillPoint points[] = {
      {"PREPARE refused at send", t.begin, Expect::not_applied},
      {"PREPARE in flight", t.begin + 1, Expect::not_applied},
      {"mid-replay-transfer", t.begin + (t.prepare_acked - t.begin) / 2,
       Expect::not_applied},
      {"COMMIT refused at send", t.prepare_acked, Expect::not_applied},
      {"COMMIT applied but unacked", t.prepare_acked + 1,
       Expect::applied_unacked},
      {"immediately after COMMIT ack", t.commit_acked, Expect::completed},
      {"one tick after COMMIT ack", t.commit_acked + 1, Expect::completed},
  };
  // Smoke covers one point from each expectation bucket.
  const std::size_t smoke_points[] = {0, 4, 6};
  const std::size_t n_points =
      g_smoke ? sizeof(smoke_points) / sizeof(smoke_points[0])
              : sizeof(points) / sizeof(points[0]);

  for (std::size_t i = 0; i < n_points; ++i) {
    const KillPoint& kp = points[g_smoke ? smoke_points[i] : i];
    SCOPED_TRACE(kp.label);
    netsim::FaultPlan plan = outage;
    plan.dead_after = kp.at;  // permanent death after the partial reconcile
    const Outcome o = run(app, params, plan, true, kBeat);
    EXPECT_EQ(o.checksum, expected);
    EXPECT_FALSE(o.dead);  // disconnected, never torn down
    EXPECT_EQ(o.failures, 0u);
    switch (kp.expect) {
      case Expect::not_applied:
        // Nothing landed on the surrogate: the log is retained for a retry
        // that never comes, and the episode never resumes.
        EXPECT_TRUE(o.disconnected_at_end);
        EXPECT_FALSE(o.first_resumed);
        EXPECT_GE(o.log_entries_left, 1u);
        EXPECT_EQ(o.client.reconciles_completed, 0u);
        if (o.reconcile_count > 0) {
          EXPECT_FALSE(o.reconcile.applied_on_peer);
          EXPECT_FALSE(o.reconcile.committed);
        }
        break;
      case Expect::applied_unacked:
        // The COMMIT executed but its ack died: the initiator proves the
        // apply through the epoch fence, retires the log (it must never
        // replay), and stays disconnected on the dead link.
        EXPECT_TRUE(o.disconnected_at_end);
        EXPECT_FALSE(o.first_resumed);
        ASSERT_GE(o.reconcile_count, 1u);
        EXPECT_TRUE(o.reconcile.applied_on_peer);
        EXPECT_FALSE(o.reconcile.committed);
        break;
      case Expect::completed:
        // The episode finished cleanly; the later death starts a second
        // episode, which the client again survives on hoarded replicas.
        EXPECT_TRUE(o.first_resumed);
        ASSERT_GE(o.reconcile_count, 1u);
        EXPECT_TRUE(o.reconcile.committed);
        break;
    }
  }
}

TEST_P(ReconcileCrashPointSweepTest, ReconnectWindowLandingMidReconcile) {
  // The fourth family: instead of dying for good at a reconcile boundary,
  // the link blinks off for 300 ms right as the reconcile runs, then comes
  // back. The platform must either have finished the exchange or retry it
  // on a later probe — both ways the run ends resumed and byte-identical.
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);
  const Outcome probe = run(app, params, netsim::FaultPlan{}, true, kBeat);
  ASSERT_TRUE(probe.offloaded);
  netsim::FaultPlan outage;
  // Long enough disconnected that even the slowest-writing app journals at
  // least one watched mutation before the link returns.
  outage.outages.push_back({probe.migration.commit_acked + 1,
                            probe.migration.commit_acked + 1 + sim_ms(1500)});
  const Outcome dprobe = run(app, params, outage, true, kBeat);
  ASSERT_GE(dprobe.reconcile_count, 1u);
  const rpc::TransferTrace& t = dprobe.reconcile;

  const SimTime points[] = {t.begin, t.prepare_acked, t.commit_acked};
  const std::size_t n = g_smoke ? 1 : sizeof(points) / sizeof(points[0]);
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("second outage at reconcile point " + std::to_string(i));
    netsim::FaultPlan plan = outage;
    // 100 ms: long enough to sever whichever leg is in flight, short enough
    // that the fastest-finishing app still outlives it — a blink the app
    // ends inside would leave no later probe to retry on.
    plan.outages.push_back({points[i], points[i] + sim_ms(100)});
    const Outcome o = run(app, params, plan, true, kBeat);
    EXPECT_EQ(o.checksum, expected);
    EXPECT_FALSE(o.dead);
    EXPECT_EQ(o.failures, 0u);
    EXPECT_GE(o.disconnects, 1u);
    EXPECT_TRUE(o.first_resumed);
    EXPECT_FALSE(o.disconnected_at_end);
    // However the exchange was cut, every retired log was applied once and
    // a resumed run carries no leftover redo entries.
    EXPECT_GE(o.client.reconciles_completed, 1u);
    EXPECT_EQ(o.log_entries_left, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, DisconnectChaosTest, ::testing::ValuesIn(kApps));
INSTANTIATE_TEST_SUITE_P(Apps, ReconcileCrashPointSweepTest,
                         ::testing::ValuesIn(kApps));

}  // namespace
}  // namespace aide::chaos

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") aide::chaos::g_smoke = true;
  }
  return RUN_ALL_TESTS();
}
