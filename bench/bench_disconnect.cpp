// Disconnected-operation cost sweep.
//
// The paper's platform tears the session down when the link dies; the
// disconnected-operation mode instead hoards the working set, journals
// intended remote mutations into a coalescing redo log, and replays it
// exactly-once through the epoch-fenced PREPARE/COMMIT reconcile when the
// link returns. This harness quantifies that trade for each application
// across a sweep of outage lengths anchored mid-run:
//
//   * ops sustained while disconnected (mutations the journal captured),
//   * log size vs. coalescing (entries shipped vs. raw ops journaled),
//   * reconcile cost vs. outage length (PREPARE->COMMIT wall time and the
//     completion-time overhead over the fault-free baseline).
//
// Output stays byte-identical to the fault-free run in every cell (the
// chaos suite enforces this; the bench re-checks and reports it). Full runs
// write BENCH_disconnect.json; `--smoke` runs a two-app subset and writes
// nothing (the CI configuration).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "forced_offload.hpp"
#include "netsim/link.hpp"
#include "platform/platform.hpp"

using namespace aide;
using namespace aide::bench;

namespace {

struct Sample {
  std::uint64_t checksum = 0;
  SimTime end = 0;
  SimTime offload_done = 0;
  bool disconnected_at_end = false;
  std::size_t disconnects = 0;
  bool resumed = false;
  std::uint64_t objects_hoarded = 0;
  std::uint64_t bytes_hoarded = 0;
  std::size_t entries_replayed = 0;
  SimDuration reconcile_cost = 0;  // first committed PREPARE->COMMIT span
  rpc::EndpointStats client;
};

Sample run(const apps::AppInfo& app, const netsim::FaultPlan& plan) {
  platform::PlatformConfig cfg = forced_offload_config();
  cfg.fault_plan = plan;
  cfg.disconnect.enabled = true;
  cfg.probe_interval = sim_ms(20);
  // Detection must not depend on the app's I/O pattern: several apps run
  // long quiet stretches (reads from snapshots, writes deferred) in which
  // only the heartbeat transmits. Same configuration as the chaos families.
  cfg.heartbeat.idle_after = sim_ms(100);

  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::Platform p(reg, cfg);
  ForcedOffload forced(p);
  p.client().add_hooks(&forced);
  Sample s;
  s.checksum = app.run(p.client(), small_app_params());
  p.client().remove_hooks(&forced);
  s.end = p.elapsed();
  if (!p.offloads().empty()) {
    s.offload_done = p.offloads().front().completed_at;
  }
  s.disconnected_at_end = p.disconnected();
  s.disconnects = p.disconnects().size();
  for (const platform::DisconnectReport& d : p.disconnects()) {
    s.resumed = s.resumed || d.resumed;
    s.objects_hoarded += d.objects_hoarded;
    s.bytes_hoarded += d.bytes_hoarded;
    s.entries_replayed += d.entries_replayed;
  }
  for (const rpc::TransferTrace& t : p.client_endpoint().reconciles()) {
    if (t.committed) {
      s.reconcile_cost = t.commit_acked - t.begin;
      break;
    }
  }
  s.client = p.client_endpoint().stats();
  return s;
}

struct Row {
  std::string app;
  double outage_s = 0.0;
  double end_s = 0.0;
  double overhead_pct = 0.0;
  std::size_t disconnects = 0;
  bool resumed = false;
  bool disconnected_at_end = false;
  std::uint64_t ops_journaled = 0;
  std::uint64_t coalesced = 0;
  std::size_t entries_replayed = 0;
  std::uint64_t bytes_hoarded = 0;
  double reconcile_ms = 0.0;
  bool output_ok = false;
};

}  // namespace

int main(int argc, char** argv) {

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  print_header(smoke ? "Disconnected operation (smoke)"
                     : "Disconnected operation: journal, coalesce, reconcile");

  const std::vector<const char*> apps_full = {"JavaNote", "Dia", "Biomer",
                                              "Voxel", "Tracer"};
  const std::vector<const char*> apps_smoke = {"JavaNote", "Tracer"};
  const std::vector<SimDuration> outages_full = {sim_ms(500), sim_sec(1),
                                                 sim_sec(2), sim_sec(4)};
  const std::vector<SimDuration> outages_smoke = {sim_sec(2)};
  const auto& app_names = smoke ? apps_smoke : apps_full;
  const auto& outages = smoke ? outages_smoke : outages_full;

  std::vector<Row> rows;
  bool all_ok = true;
  for (const char* name : app_names) {
    const auto& app = apps::app_by_name(name);
    const Sample base = run(app, netsim::FaultPlan{});
    std::printf("  %s  (fault-free: %.2f s)\n", name, sim_to_seconds(base.end));

    for (const SimDuration len : outages) {
      // Anchor the outage a quarter of the way into the offloaded phase, the
      // same mid-run placement the chaos families target, long after the
      // migration has settled.
      netsim::FaultPlan plan;
      const SimTime start =
          base.offload_done +
          std::max<SimDuration>(1, (base.end - base.offload_done) / 4);
      plan.outages.push_back({start, start + len});
      const Sample s = run(app, plan);

      Row r;
      r.app = name;
      r.outage_s = sim_to_seconds(len);
      r.end_s = sim_to_seconds(s.end);
      r.overhead_pct = (sim_to_seconds(s.end) - sim_to_seconds(base.end)) /
                       sim_to_seconds(base.end) * 100.0;
      r.disconnects = s.disconnects;
      r.resumed = s.resumed;
      r.disconnected_at_end = s.disconnected_at_end;
      r.ops_journaled = s.client.ops_journaled;
      r.coalesced = s.client.journal_coalesced;
      r.entries_replayed = s.entries_replayed;
      r.bytes_hoarded = s.bytes_hoarded;
      r.reconcile_ms = sim_to_seconds(s.reconcile_cost) * 1e3;
      r.output_ok = s.checksum == base.checksum;
      all_ok = all_ok && r.output_ok;
      rows.push_back(r);

      const double coalesce_pct =
          r.ops_journaled == 0
              ? 0.0
              : 100.0 * static_cast<double>(r.coalesced) /
                    static_cast<double>(r.ops_journaled);
      std::printf(
          "    outage %5.2f s: %7.2f s (%+6.1f%%)  disc %zu  hoarded %6.1f KB"
          "  journaled %4llu (coalesced %4.0f%%)  replayed %3zu"
          "  reconcile %6.2f ms%s%s%s\n",
          r.outage_s, r.end_s, r.overhead_pct, r.disconnects,
          static_cast<double>(r.bytes_hoarded) / 1024.0,
          static_cast<unsigned long long>(r.ops_journaled), coalesce_pct,
          r.entries_replayed, r.reconcile_ms,
          r.disconnects == 0 ? "  [absorbed]" : "",
          r.disconnected_at_end ? "  [still disconnected]" : "",
          r.output_ok ? "" : "  OUTPUT MISMATCH");
    }
  }

  if (!smoke) {
    std::ofstream json("BENCH_disconnect.json");
    json << "{\n  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      json << "    {\"app\": \"" << r.app << "\", \"outage_s\": " << r.outage_s
           << ", \"end_s\": " << r.end_s
           << ", \"overhead_pct\": " << r.overhead_pct
           << ", \"disconnects\": " << r.disconnects
           << ", \"resumed\": " << (r.resumed ? "true" : "false")
           << ", \"disconnected_at_end\": "
           << (r.disconnected_at_end ? "true" : "false")
           << ", \"ops_journaled\": " << r.ops_journaled
           << ", \"journal_coalesced\": " << r.coalesced
           << ", \"entries_replayed\": " << r.entries_replayed
           << ", \"bytes_hoarded\": " << r.bytes_hoarded
           << ", \"reconcile_ms\": " << r.reconcile_ms
           << ", \"output_ok\": " << (r.output_ok ? "true" : "false") << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"all_output_ok\": " << (all_ok ? "true" : "false")
         << "\n}\n";
    std::printf("\n  wrote BENCH_disconnect.json (%zu runs)\n", rows.size());
  }
  return all_ok ? 0 : 1;
}
