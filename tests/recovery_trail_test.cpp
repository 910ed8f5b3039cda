// Recovery timelines pinned byte-for-byte.
//
// The fault, chaos and disconnect suites check properties of surrogate loss
// (output identical, state reclaimed, log replayed once). This test pins the
// exact virtual-time trail instead: one line per Dia scenario — death
// mid-invoke, death then revival with readmission, proactive recall over a
// degrading link, a heartbeat-detected outage that reconciles, a flapping
// link, a permanent partition and a reconcile whose ack is lost — holding the
// end time, every field of every platform report, both endpoints' stats, the
// link stats and the client's stub count. Any change to when the platform
// probes, pulls state home, reconnects or re-offloads moves a number here.
// Regenerate tests/golden/recovery_trails.txt with AIDE_UPDATE_GOLDEN=1 only
// after an intended timeline change.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/apps.hpp"
#include "bench/forced_offload.hpp"
#include "netsim/link.hpp"
#include "platform/platform.hpp"
#include "tests/test_util.hpp"
#include "vm/vm.hpp"

namespace aide {
namespace {

// Heartbeat idle threshold of the chaos suite's disconnect families.
constexpr SimDuration kBeat = sim_ms(100);

// chaos_test's disconnect families: the policy armed, fast reconnect
// probing and an idle heartbeat.
platform::PlatformConfig partition_config() {
  auto cfg = bench::forced_offload_config();
  cfg.disconnect.enabled = true;
  cfg.probe_interval = sim_ms(20);
  cfg.heartbeat.idle_after = kBeat;
  return cfg;
}

void put(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

void put_offload(std::string& out, const platform::OffloadReport& r) {
  const partition::PartitionDecision& d = r.decision;
  const graph::Candidate& c = d.selected;
  put(out, "{at=%" PRId64 " done=%" PRId64 " objects=%zu bytes=%" PRIu64
           " heap=%" PRId64 "->%" PRId64,
      r.at, r.completed_at, r.objects_migrated, r.bytes_migrated,
      r.client_heap_used_before, r.client_heap_used_after);
  put(out, " decision=%d/%zu/%zu bw=%.9g orig=%" PRId64 " off=%" PRId64
           " mincut=%zu/%zu hints=%d",
      d.offload ? 1 : 0, d.candidates_total, d.candidates_feasible,
      d.predicted_bandwidth_bps, d.predicted_original_time,
      d.predicted_offloaded_time, d.mincut_nodes, d.mincut_edges,
      d.hints_applied ? 1 : 0);
  put(out, " cut=%zu/%.9g/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRId64
           "/%" PRId64 "}",
      c.offload.size(), c.cut_weight, c.cut_bytes, c.cut_invocations,
      c.cut_accesses, c.offload_mem_bytes, c.offload_self_time);
}

void put_endpoint(std::string& out, const rpc::EndpointStats& s) {
  constexpr std::size_t kFields =
      sizeof(rpc::EndpointStats) / sizeof(std::uint64_t);
  const auto raw = std::bit_cast<std::array<std::uint64_t, kFields>>(s);
  out += "[";
  for (std::size_t i = 0; i < kFields; ++i) {
    put(out, i == 0 ? "%" PRIu64 : " %" PRIu64, raw[i]);
  }
  out += "]";
}

// Runs Dia once under `cfg` and renders the scenario's trail line.
std::string trail(const char* name, const platform::PlatformConfig& cfg) {
  const auto& app = apps::app_by_name("Dia");
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::Platform p(reg, cfg);
  bench::ForcedOffload forced(p);
  p.client().add_hooks(&forced);
  const std::uint64_t checksum = app.run(p.client(), bench::small_app_params());
  p.client().remove_hooks(&forced);

  std::string out = name;
  put(out, " checksum=%016" PRIx64 " end=%" PRId64 " stubs=%zu dead=%d "
           "disconnected=%d",
      checksum, p.elapsed(), p.client().stub_count(),
      p.surrogate_dead() ? 1 : 0, p.disconnected() ? 1 : 0);
  out += " offloads=";
  for (const auto& r : p.offloads()) put_offload(out, r);
  out += " failures=";
  for (const auto& f : p.failures()) {
    put(out, "{at=%" PRId64 " objects=%zu bytes=%" PRIu64 "}", f.at,
        f.objects_reclaimed, f.bytes_reclaimed);
  }
  out += " readmissions=";
  for (const auto& r : p.readmissions()) {
    put(out, "{at=%" PRId64 " ordinal=%zu probes=%zu reoffloaded=%d}", r.at,
        r.ordinal, r.probes_sent, r.reoffloaded ? 1 : 0);
  }
  out += " disconnects=";
  for (const auto& d : p.disconnects()) {
    put(out, "{at=%" PRId64 " objects=%zu bytes=%" PRIu64
             " reconciles=%zu entries=%zu resumed=%d at=%" PRId64 "}",
        d.at, d.objects_hoarded, d.bytes_hoarded, d.reconciles,
        d.entries_replayed, d.resumed ? 1 : 0, d.resumed_at);
  }
  out += " recalls=";
  for (const auto& r : p.recalls()) {
    put(out, "{at=%" PRId64 " objects=%zu bytes=%" PRIu64 "}", r.at,
        r.objects, r.bytes);
  }
  out += " client=";
  put_endpoint(out, p.client_endpoint().stats());
  out += " surrogate=";
  put_endpoint(out, p.surrogate_endpoint().stats());
  const netsim::LinkStats& l = p.link().stats();
  put(out, " link=[%" PRIu64 " %" PRIu64 " %" PRId64 " %" PRIu64 " %" PRIu64
           " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "]\n",
      l.messages, l.bytes, l.busy_time, l.ops_carried, l.messages_dropped,
      l.bytes_dropped, l.link_down_failures, l.messages_corrupted,
      l.messages_duplicated, l.messages_reordered);
  return out;
}

// The probe run's first migration and the end of the run: the anchors the
// fault and chaos suites derive their schedules from.
struct Timeline {
  SimTime offload_done = 0;
  SimTime commit_acked = 0;
  SimTime end = 0;
  rpc::TransferTrace reconcile;  // first reconcile, when the run has one
};

Timeline timeline(const platform::PlatformConfig& cfg) {
  const auto& app = apps::app_by_name("Dia");
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::Platform p(reg, cfg);
  bench::ForcedOffload forced(p);
  p.client().add_hooks(&forced);
  (void)app.run(p.client(), bench::small_app_params());
  p.client().remove_hooks(&forced);
  Timeline t;
  EXPECT_TRUE(p.offloaded());
  if (p.offloaded()) t.offload_done = p.offloads().front().completed_at;
  if (!p.client_endpoint().migrations().empty()) {
    t.commit_acked = p.client_endpoint().migrations().front().commit_acked;
  }
  if (!p.client_endpoint().reconciles().empty()) {
    t.reconcile = p.client_endpoint().reconciles().front();
  }
  t.end = p.elapsed();
  return t;
}

TEST(RecoveryTrailTest, DiaTimelinesMatchGolden) {
  std::string out;

  // fault_test: death mid-invoke, then death revived with readmission.
  const Timeline plain = timeline(bench::forced_offload_config());
  {
    auto cfg = bench::forced_offload_config();
    cfg.fault_plan.dead_after =
        plain.offload_done +
        std::max<SimDuration>(1, (plain.end - plain.offload_done) / 2);
    out += trail("dead-mid-invoke", cfg);
  }
  {
    auto cfg = bench::forced_offload_config();
    cfg.fault_plan.dead_after =
        plain.offload_done + (plain.end - plain.offload_done) / 4;
    cfg.fault_plan.revive_at = cfg.fault_plan.dead_after + sim_ms(250);
    cfg.readmission.enabled = true;
    cfg.probe_interval = sim_ms(1);
    out += trail("dead-then-readmitted", cfg);
  }

  // disconnect_test: a degrade threshold any primed RTT exceeds.
  {
    auto cfg = bench::forced_offload_config();
    cfg.disconnect.enabled = true;
    cfg.disconnect.degrade_rtt = 1;
    out += trail("degrade-recall", cfg);
  }

  // chaos_test's disconnect families, anchored after the offload commits.
  const Timeline armed = timeline(partition_config());
  const SimTime down = armed.commit_acked + 1;
  netsim::FaultPlan outage;
  outage.outages.push_back({down, down + sim_ms(1500)});
  {
    auto cfg = partition_config();
    cfg.fault_plan = outage;
    out += trail("outage-reconciles", cfg);
  }
  {
    auto cfg = partition_config();
    cfg.fault_plan = netsim::make_flap_plan(down, sim_ms(400), sim_ms(1500));
    out += trail("flap", cfg);
  }
  {
    auto cfg = partition_config();
    cfg.fault_plan.outages.push_back({down, netsim::FaultPlan::kNever});
    out += trail("permanent-partition", cfg);
  }
  {
    // The reconcile crash sweep's "COMMIT applied but unacked" point: the
    // log retires, the platform stays disconnected on a dead link.
    auto cfg = partition_config();
    cfg.fault_plan = outage;
    const Timeline reconciled = timeline(cfg);
    ASSERT_TRUE(reconciled.reconcile.committed);
    cfg.fault_plan.dead_after = reconciled.reconcile.prepare_acked + 1;
    out += trail("reconcile-ack-lost", cfg);
  }

  aide::test::check_golden("recovery_trails.txt", out);
}

}  // namespace
}  // namespace aide
