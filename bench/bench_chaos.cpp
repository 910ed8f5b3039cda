// Message-level chaos sweep (ISSUE 4 tentpole bench).
//
// Runs the five paper applications under the chaos harness's 25 seeded fault
// schedules (loss, reply-leg loss, corrupt/duplicate/reorder, periodic
// outages, and the kitchen sink) on the live two-VM platform, and reports
// what the fault tolerance machinery costs: completion-time slowdown versus
// the fault-free run and the retry / dedup / fencing traffic each schedule
// induced. Output byte-equality with the standalone run is enforced by
// tests/chaos_test.cpp and merely echoed here.
//
// Full runs write BENCH_chaos.json; `--smoke` runs a 5-schedule subset and
// writes nothing.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "forced_offload.hpp"
#include "netsim/link.hpp"
#include "platform/platform.hpp"

using namespace aide;
using namespace aide::bench;

namespace {

constexpr std::size_t kFullSchedules = 25;

const char* const kApps[] = {"JavaNote", "Dia", "Biomer", "Voxel", "Tracer"};
const char* const kFamilies[] = {"loss", "reply-loss", "chaos-trio",
                                 "periodic-outage", "kitchen-sink"};

struct Sample {
  std::uint64_t checksum = 0;
  SimTime end = 0;
  bool dead = false;
  std::size_t failures = 0;
  rpc::TransferTrace migration;
  rpc::EndpointStats client;
  rpc::EndpointStats surrogate;
  netsim::LinkStats link;
};

Sample run(const apps::AppInfo& app, const netsim::FaultPlan& plan) {
  platform::PlatformConfig cfg = forced_offload_config();
  cfg.fault_plan = plan;

  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::Platform p(reg, cfg);
  ForcedOffload forced(p);
  p.client().add_hooks(&forced);
  Sample s;
  s.checksum = app.run(p.client(), small_app_params());
  p.client().remove_hooks(&forced);
  s.end = p.elapsed();
  s.dead = p.surrogate_dead();
  s.failures = p.failures().size();
  if (!p.client_endpoint().migrations().empty()) {
    s.migration = p.client_endpoint().migrations().front();
  }
  s.client = p.client_endpoint().stats();
  s.surrogate = p.surrogate_endpoint().stats();
  s.link = p.link().stats();
  return s;
}

// Mirror of tests/chaos_test.cpp's generator: five families, escalating with
// each lap, anchored to the app's fault-free timeline.
netsim::FaultPlan schedule(std::size_t i, const Sample& probe) {
  const std::size_t lap = i / 5;
  netsim::FaultPlan plan;
  switch (i % 5) {
    case 0:
      plan.drop_probability = 0.02 + 0.015 * static_cast<double>(lap);
      plan.drop_seed = 0x1000 + i;
      break;
    case 1:
      plan.reply_drop_probability = 0.10 + 0.04 * static_cast<double>(lap);
      plan.drop_seed = 0x2000 + i;
      break;
    case 2:
      plan.corrupt_probability = 0.02 + 0.01 * static_cast<double>(lap);
      plan.duplicate_probability = 0.04 + 0.02 * static_cast<double>(lap);
      plan.reorder_probability = 0.03 + 0.01 * static_cast<double>(lap);
      plan.chaos_seed = 0x3000 + i;
      break;
    case 3:
      plan.outage_period = sim_ms(150) + sim_ms(35) * static_cast<int>(lap);
      plan.outage_duration = sim_ms(4) + sim_ms(2) * static_cast<int>(lap);
      plan.outage_phase =
          probe.migration.begin + sim_ms(3) * static_cast<int>(i);
      break;
    default:
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

struct Row {
  std::string app;
  std::size_t index = 0;
  const char* family = nullptr;
  double end_s = 0.0;
  double slowdown_pct = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t duplicates_served = 0;
  std::uint64_t corrupt_rejected = 0;
  std::uint64_t stale_fenced = 0;
  std::size_t failures = 0;
  bool output_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  const std::size_t schedules = smoke ? 5 : kFullSchedules;

  print_header("Chaos sweep: fault-tolerance cost under seeded schedules");

  std::vector<Row> rows;
  for (const char* name : kApps) {
    const auto& app = apps::app_by_name(name);
    const Sample base = run(app, netsim::FaultPlan{});
    std::printf("  %s  (fault-free: %.2f s)\n", name,
                sim_to_seconds(base.end));

    // Per-family aggregation for the human-readable table.
    double worst[5] = {};
    std::uint64_t fam_retries[5] = {};
    for (std::size_t i = 0; i < schedules; ++i) {
      const Sample s = run(app, schedule(i, base));
      Row r;
      r.app = name;
      r.index = i;
      r.family = kFamilies[i % 5];
      r.end_s = sim_to_seconds(s.end);
      r.slowdown_pct = (sim_to_seconds(s.end) - sim_to_seconds(base.end)) /
                       sim_to_seconds(base.end) * 100.0;
      r.retries = s.client.retries + s.surrogate.retries;
      r.timeouts = s.client.timeouts + s.surrogate.timeouts;
      r.duplicates_served =
          s.client.duplicates_served + s.surrogate.duplicates_served;
      r.corrupt_rejected = s.client.corrupt_frames_rejected +
                           s.surrogate.corrupt_frames_rejected;
      r.stale_fenced =
          s.client.stale_frames_fenced + s.surrogate.stale_frames_fenced;
      r.failures = s.failures;
      r.output_ok = s.checksum == base.checksum;
      worst[i % 5] = std::max(worst[i % 5], r.slowdown_pct);
      fam_retries[i % 5] += r.retries;
      if (!r.output_ok) {
        std::printf("    schedule %zu: OUTPUT MISMATCH\n", i);
      }
      rows.push_back(std::move(r));
    }
    for (std::size_t f = 0; f < 5; ++f) {
      std::printf("    %-16s worst slowdown %+7.2f%%  retries %5llu\n",
                  kFamilies[f], worst[f],
                  static_cast<unsigned long long>(fam_retries[f]));
    }
  }

  bool all_ok = true;
  for (const Row& r : rows) all_ok = all_ok && r.output_ok;

  if (!smoke) {
    std::ofstream json("BENCH_chaos.json");
    json << "{\n  \"schedules\": " << schedules << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      json << "    {\"app\": \"" << r.app << "\", \"schedule\": " << r.index
           << ", \"family\": \"" << r.family << "\""
           << ", \"end_s\": " << r.end_s
           << ", \"slowdown_pct\": " << r.slowdown_pct
           << ", \"retries\": " << r.retries
           << ", \"timeouts\": " << r.timeouts
           << ", \"duplicates_served\": " << r.duplicates_served
           << ", \"corrupt_rejected\": " << r.corrupt_rejected
           << ", \"stale_fenced\": " << r.stale_fenced
           << ", \"failures\": " << r.failures
           << ", \"output_ok\": " << (r.output_ok ? "true" : "false") << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"all_output_ok\": " << (all_ok ? "true" : "false")
         << "\n}\n";
    std::printf("\n  wrote BENCH_chaos.json (%zu runs)\n", rows.size());
  }

  std::printf("  %s\n", all_ok ? "OK" : "OUTPUT MISMATCHES PRESENT");
  return all_ok ? 0 : 1;
}
