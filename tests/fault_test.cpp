// Surrogate-failure recovery matrix.
//
// Five deterministic fault schedules — surrogate dead at first contact, dead
// mid-migration, dead mid-invoke after a completed offload, a transient
// post-offload outage, and a lossy link — crossed with the five paper
// applications. Every cell must run to completion with output byte-identical
// to a standalone (never-offloaded) execution: the paper's transparency
// requirement extended across surrogate failure. The schedules are derived
// from a fault-free probe run, which is exact because the platform is fully
// deterministic under virtual time.
//
// Also here: the zero-fault parity check (an armed-but-never-firing FaultPlan
// must reproduce the fault-free run's statistics bit-for-bit) and the
// determinism regression (same seeds => identical stats, different seeds =>
// different stats, including the jitter path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/apps.hpp"
#include "bench/forced_offload.hpp"
#include "common/error.hpp"
#include "netsim/link.hpp"
#include "platform/platform.hpp"
#include "vm/vm.hpp"

namespace aide {
namespace {

constexpr NodeId kSurrogateNode{2};

// Classifies where each method invocation actually executed, from a chosen
// virtual instant onwards: the calling VM reports the event, so execution
// happened on the surrogate iff (reporter == surrogate) XOR remote.
class RemoteFractionProbe : public vm::VmHooks {
 public:
  explicit RemoteFractionProbe(SimTime after) : after_(after) {}
  void on_invoke(const vm::InvokeEvent& e) override {
    if (e.t < after_) return;
    total_ += 1;
    if ((e.vm == kSurrogateNode) != e.remote) remote_ += 1;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double fraction() const noexcept {
    return total_ == 0 ? 0.0
                       : static_cast<double>(remote_) /
                             static_cast<double>(total_);
  }

 private:
  SimTime after_;
  std::uint64_t total_ = 0;
  std::uint64_t remote_ = 0;
};

struct RunResult {
  std::uint64_t checksum = 0;
  bool offloaded = false;
  bool dead = false;
  SimTime offload_at = 0;
  SimTime offload_done = 0;
  SimTime end = 0;
  std::size_t failures = 0;
  std::size_t offload_count = 0;
  std::size_t readmission_count = 0;
  SimTime readmission_at = 0;
  bool readmission_reoffloaded = false;
  std::size_t objects_reclaimed = 0;
  std::size_t stub_count = 0;
  rpc::TransferTrace migration;  // first migration's message boundaries
  std::uint64_t invokes_measured = 0;
  double remote_fraction = 0.0;  // of invokes at/after measure_after
  rpc::EndpointStats client_stats;
  rpc::EndpointStats surrogate_stats;
  netsim::LinkStats link_stats;
};

RunResult run_app(const apps::AppInfo& app, const apps::AppParams& params,
                  platform::PlatformConfig cfg, SimTime measure_after = 0) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::Platform p(reg, cfg);
  bench::ForcedOffload forced(p);
  RemoteFractionProbe remote_probe(measure_after);
  p.client().add_hooks(&forced);
  p.client().add_hooks(&remote_probe);
  p.surrogate().add_hooks(&remote_probe);
  RunResult r;
  r.checksum = app.run(p.client(), params);
  p.surrogate().remove_hooks(&remote_probe);
  p.client().remove_hooks(&remote_probe);
  p.client().remove_hooks(&forced);
  r.offloaded = p.offloaded();
  r.dead = p.surrogate_dead();
  if (r.offloaded) {
    r.offload_at = p.offloads().front().at;
    r.offload_done = p.offloads().front().completed_at;
  }
  r.end = p.elapsed();
  r.failures = p.failures().size();
  r.offload_count = p.offloads().size();
  r.readmission_count = p.readmissions().size();
  if (!p.readmissions().empty()) {
    r.readmission_at = p.readmissions().front().at;
    r.readmission_reoffloaded = p.readmissions().front().reoffloaded;
  }
  if (!p.failures().empty()) {
    r.objects_reclaimed = p.failures().front().objects_reclaimed;
  }
  r.stub_count = p.client().stub_count();
  if (!p.client_endpoint().migrations().empty()) {
    r.migration = p.client_endpoint().migrations().front();
  }
  r.invokes_measured = remote_probe.total();
  r.remote_fraction = remote_probe.fraction();
  r.client_stats = p.client_endpoint().stats();
  r.surrogate_stats = p.surrogate_endpoint().stats();
  r.link_stats = p.link().stats();
  return r;
}

RunResult run_cell(const apps::AppInfo& app, const apps::AppParams& params,
                   const netsim::FaultPlan& plan) {
  auto cfg = bench::forced_offload_config();
  cfg.fault_plan = plan;
  return run_app(app, params, cfg);
}

class FaultMatrixTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultMatrixTest, EveryScheduleRecoversWithIdenticalOutput) {
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);

  // Fault-free probe: fixes this app's offload timeline exactly.
  const RunResult probe = run_cell(app, params, netsim::FaultPlan{});
  ASSERT_TRUE(probe.offloaded) << "probe run never offloaded";
  ASSERT_EQ(probe.checksum, expected) << "fault-free transparency broken";
  ASSERT_LT(probe.offload_at, probe.offload_done);
  ASSERT_EQ(probe.failures, 0u);

  {
    SCOPED_TRACE("cell: surrogate dead at first contact");
    netsim::FaultPlan plan;
    plan.dead_after = 1;
    const RunResult r = run_cell(app, params, plan);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_TRUE(r.dead);
    EXPECT_FALSE(r.offloaded);
    EXPECT_EQ(r.failures, 1u);
    // Nothing ever reached the surrogate, so nothing comes back.
    EXPECT_EQ(r.objects_reclaimed, 0u);
    EXPECT_GE(r.client_stats.aborted_rpcs, 1u);
    EXPECT_GE(r.client_stats.timeouts,
              static_cast<std::uint64_t>(rpc::kMaxAttempts));
    EXPECT_EQ(r.stub_count, 0u);
  }

  {
    SCOPED_TRACE("cell: surrogate dies with PREPARE in flight");
    // The PREPARE leaves at offload_at; one tick later the link is dead, so
    // its acknowledgement never returns and the COMMIT is never sent. The
    // staged bytes die with the connection: the batch never entered the
    // surrogate heap, so rollback is purely local and recovery reclaims
    // nothing.
    netsim::FaultPlan plan;
    plan.dead_after = probe.offload_at + 1;
    const RunResult r = run_cell(app, params, plan);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_TRUE(r.dead);
    EXPECT_FALSE(r.offloaded);
    EXPECT_EQ(r.failures, 1u);
    EXPECT_EQ(r.objects_reclaimed, 0u);
    EXPECT_GE(r.client_stats.aborted_rpcs, 1u);
    EXPECT_EQ(r.stub_count, 0u);
  }

  {
    SCOPED_TRACE("cell: surrogate dies with COMMIT applied but unacked");
    // The COMMIT leaves right after the PREPARE acknowledgement; one tick
    // later the link is dead. The surrogate adopts the staged batch but the
    // acknowledgement never returns, so the initiator's abort path must
    // detect the adoption and leave ownership with the surrogate — recovery
    // then pulls those objects back.
    ASSERT_TRUE(probe.migration.committed);
    ASSERT_GT(probe.migration.prepare_acked, probe.migration.begin);
    netsim::FaultPlan plan;
    plan.dead_after = probe.migration.prepare_acked + 1;
    const RunResult r = run_cell(app, params, plan);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_TRUE(r.dead);
    EXPECT_EQ(r.failures, 1u);
    EXPECT_GT(r.objects_reclaimed, 0u);
    EXPECT_GE(r.client_stats.aborted_rpcs, 1u);
    EXPECT_EQ(r.stub_count, 0u);
  }

  {
    SCOPED_TRACE("cell: surrogate dies mid-invoke after offload");
    netsim::FaultPlan plan;
    plan.dead_after =
        probe.offload_done +
        std::max<SimDuration>(1, (probe.end - probe.offload_done) / 2);
    const RunResult r = run_cell(app, params, plan);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_TRUE(r.offloaded);  // the migration itself completed
    EXPECT_TRUE(r.dead);
    EXPECT_EQ(r.failures, 1u);
    EXPECT_GE(r.client_stats.aborted_rpcs + r.client_stats.recovered_rpcs, 1u);
    EXPECT_EQ(r.stub_count, 0u);
  }

  {
    SCOPED_TRACE("cell: transient outage shortly after offload");
    // 60 ms of radio silence: short enough that every RPC survives within
    // the retry budget (first re-attempt comes 75 ms after a failure).
    netsim::FaultPlan plan;
    plan.outages.push_back({probe.offload_done + sim_ms(1),
                            probe.offload_done + sim_ms(61)});
    const RunResult r = run_cell(app, params, plan);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_TRUE(r.offloaded);
    EXPECT_FALSE(r.dead);
    EXPECT_EQ(r.failures, 0u);
    EXPECT_EQ(r.client_stats.aborted_rpcs, 0u);
    // Without aborts every timeout is followed by a retry.
    EXPECT_EQ(r.client_stats.retries, r.client_stats.timeouts);
    EXPECT_EQ(r.link_stats.messages_dropped, 0u);
  }

  {
    SCOPED_TRACE("cell: reply-leg losses only (at-most-once dedup)");
    // Requests always arrive and execute; only acknowledgements vanish.
    // Every loss forces a retry of an already-executed request, which the
    // serving endpoint must answer from its reply cache — duplicates_served
    // counts those, and the unchanged checksum proves no side effect ran
    // twice.
    netsim::FaultPlan plan;
    plan.reply_drop_probability = 0.25;
    plan.drop_seed = 0x5EED0;
    const RunResult r = run_cell(app, params, plan);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_GT(r.link_stats.messages_dropped, 0u);
    EXPECT_GT(r.client_stats.duplicates_served +
                  r.surrogate_stats.duplicates_served,
              0u);
    // A reply can only be lost after its request got through, so at worst an
    // abort happens when all retry replies are also lost — vanishingly rare,
    // but either path ends in the checksum proved above.
    EXPECT_LE(r.failures, 1u);
  }

  {
    SCOPED_TRACE("cell: lossy link for the whole run");
    netsim::FaultPlan plan;
    plan.drop_probability = 0.08;
    plan.drop_seed = 0xFEED5EED;
    const RunResult r = run_cell(app, params, plan);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_GT(r.link_stats.messages_dropped, 0u);
    EXPECT_GT(r.link_stats.bytes_dropped, 0u);
    // Every dropped message cost somebody a timeout and a retry.
    EXPECT_GE(r.client_stats.retries + r.surrogate_stats.retries, 1u);
    // An unlucky burst may kill the surrogate, but never more than once,
    // and the output above proved either path ends in the same state.
    EXPECT_LE(r.failures, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, FaultMatrixTest,
                         ::testing::Values("JavaNote", "Dia", "Biomer",
                                           "Voxel", "Tracer"));

TEST(FaultParityTest, ArmedButNeverFiringPlanMatchesFaultFreeRunExactly) {
  const auto& app = apps::app_by_name("Dia");
  const auto params = bench::small_app_params();
  const RunResult base = run_cell(app, params, netsim::FaultPlan{});
  ASSERT_TRUE(base.offloaded);

  // This plan is enabled() — journalling, reply caching and the fault-aware
  // send path are all live — yet none of its faults can ever fire, so every
  // observable statistic must match the fault-free run bit-for-bit.
  netsim::FaultPlan armed;
  armed.outages.push_back(
      {netsim::FaultPlan::kNever - 2, netsim::FaultPlan::kNever - 1});
  const RunResult r = run_cell(app, params, armed);

  EXPECT_EQ(r.checksum, base.checksum);
  EXPECT_EQ(r.end, base.end);
  EXPECT_EQ(r.offload_at, base.offload_at);
  EXPECT_EQ(r.offload_done, base.offload_done);
  EXPECT_TRUE(r.link_stats == base.link_stats);
  EXPECT_TRUE(r.client_stats == base.client_stats);
  EXPECT_TRUE(r.surrogate_stats == base.surrogate_stats);
  EXPECT_EQ(r.failures, 0u);
}

// ISSUE 4 acceptance: a revive_at schedule produces a second OffloadReport
// and the post-recovery remote-execution fraction is within noise of a run
// where the surrogate never failed.
TEST(ReadmissionTest, RevivedSurrogateIsReAdmittedAndReOffloaded) {
  const auto& app = apps::app_by_name("Dia");
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);

  // Fault-free probe fixes the offload timeline and the steady-state remote
  // fraction (measured from the completed offload onwards).
  const RunResult probe =
      run_app(app, params, bench::forced_offload_config(), /*measure_after=*/0);
  ASSERT_TRUE(probe.offloaded);
  const RunResult baseline =
      run_app(app, params, bench::forced_offload_config(), probe.offload_done);
  ASSERT_GT(baseline.invokes_measured, 0u);
  ASSERT_GT(baseline.remote_fraction, 0.0);

  // Kill the surrogate a quarter of the way into the post-offload phase and
  // revive it 250 ms later (past the failure-detection retries, so the first
  // post-recovery probe finds it alive). Timestamps after the failure shift
  // relative to the probe run — the revive instant only needs to land while
  // the app is still executing.
  auto cfg = bench::forced_offload_config();
  cfg.fault_plan.dead_after =
      probe.offload_done + (probe.end - probe.offload_done) / 4;
  cfg.fault_plan.revive_at = cfg.fault_plan.dead_after + sim_ms(250);
  cfg.readmission.enabled = true;
  cfg.probe_interval = sim_ms(1);

  // First pass learns the (deterministic) re-admission instant; the second
  // measures the remote-execution fraction from exactly that instant.
  const RunResult first = run_app(app, params, cfg);
  ASSERT_EQ(first.failures, 1u);
  ASSERT_EQ(first.readmission_count, 1u);
  ASSERT_TRUE(first.readmission_reoffloaded);
  const RunResult r = run_app(app, params, cfg, first.readmission_at);

  EXPECT_EQ(r.checksum, expected);
  EXPECT_FALSE(r.dead);  // recovered, not permanently degraded
  EXPECT_EQ(r.failures, 1u);
  EXPECT_EQ(r.readmission_count, 1u);
  EXPECT_EQ(r.offload_count, 2u);  // the second OffloadReport
  EXPECT_GT(r.readmission_at, cfg.fault_plan.revive_at);

  // Post-recovery execution is offloaded again: the remote fraction after
  // re-admission matches the never-failed steady state within noise.
  ASSERT_GT(r.invokes_measured, 0u);
  EXPECT_GT(r.remote_fraction, 0.0);
  EXPECT_NEAR(r.remote_fraction, baseline.remote_fraction, 0.25);
}

TEST(FaultDeterminismTest, SameSeedsReproduceIdenticalRuns) {
  const auto& app = apps::app_by_name("Biomer");
  const auto params = bench::small_app_params();

  auto cfg = bench::forced_offload_config();
  cfg.link.jitter_fraction = 0.25;
  cfg.link.jitter_seed = 7;
  cfg.fault_plan.drop_probability = 0.10;
  cfg.fault_plan.drop_seed = 0xABCD;

  const RunResult a = run_app(app, params, cfg);
  const RunResult b = run_app(app, params, cfg);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.end, b.end);
  EXPECT_TRUE(a.link_stats == b.link_stats);
  EXPECT_TRUE(a.client_stats == b.client_stats);
  EXPECT_TRUE(a.surrogate_stats == b.surrogate_stats);
  EXPECT_GT(a.link_stats.messages_dropped, 0u);

  // A different drop seed shifts which messages are lost...
  auto other_drop = cfg;
  other_drop.fault_plan.drop_seed = 0xABCE;
  const RunResult c = run_app(app, params, other_drop);
  EXPECT_FALSE(c.link_stats == a.link_stats);
  // ...and a different jitter seed changes airtime even with equal traffic.
  auto other_jitter = cfg;
  other_jitter.link.jitter_seed = 8;
  const RunResult d = run_app(app, params, other_jitter);
  EXPECT_FALSE(d.link_stats == a.link_stats);

  // Faults or not, the output never changes.
  EXPECT_EQ(c.checksum, a.checksum);
  EXPECT_EQ(d.checksum, a.checksum);
}

}  // namespace
}  // namespace aide
