// Failure-recovery cost sweep.
//
// The paper never measures what a vanished surrogate costs; this harness
// does. For each application we run the live two-VM platform under four
// regimes — fault-free, surrogate dead mid-invoke, a 60 ms transient outage,
// and an 8% lossy link — and report completion time, the retry/timeout
// traffic the faults induced, and the state reclaimed by recovery. The
// invariant (enforced by tests/fault_test.cpp, merely echoed here) is that
// output is byte-identical across all regimes. Writes BENCH_fault.json.
#include <algorithm>
#include <cstdio>
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
  SimTime offload_at = 0;
  SimTime offload_done = 0;
  bool dead = false;
  std::size_t objects_reclaimed = 0;
  std::size_t bytes_reclaimed = 0;
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
  if (p.offloaded()) {
    s.offload_at = p.offloads().front().at;
    s.offload_done = p.offloads().front().completed_at;
  }
  s.dead = p.surrogate_dead();
  if (!p.failures().empty()) {
    s.objects_reclaimed = p.failures().front().objects_reclaimed;
    s.bytes_reclaimed = p.failures().front().bytes_reclaimed;
  }
  s.client = p.client_endpoint().stats();
  s.surrogate = p.surrogate_endpoint().stats();
  s.link = p.link().stats();
  return s;
}

struct Row {
  std::string app;
  const char* regime = nullptr;
  double end_s = 0.0;
  double recovery_overhead_pct = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t duplicates_served = 0;
  std::uint64_t aborted = 0;
  std::size_t objects_reclaimed = 0;
  std::size_t bytes_reclaimed = 0;
  bool surrogate_lost = false;
  bool output_ok = false;
};

Row make_row(const char* app, const char* regime, const Sample& s,
             const Sample& base) {
  Row r;
  r.app = app;
  r.regime = regime;
  r.end_s = sim_to_seconds(s.end);
  r.recovery_overhead_pct = (sim_to_seconds(s.end) - sim_to_seconds(base.end)) /
                            sim_to_seconds(base.end) * 100.0;
  r.retries = s.client.retries;
  r.timeouts = s.client.timeouts;
  r.duplicates_served =
      s.client.duplicates_served + s.surrogate.duplicates_served;
  r.aborted = s.client.aborted_rpcs;
  r.objects_reclaimed = s.objects_reclaimed;
  r.bytes_reclaimed = s.bytes_reclaimed;
  r.surrogate_lost = s.dead;
  r.output_ok = s.checksum == base.checksum;
  return r;
}

void print_sample(const char* label, const Sample& s, const Sample& base) {
  std::printf(
      "    %-22s %8.2f s (%+6.1f%%)  retries %4llu  timeouts %4llu"
      "  aborted %2llu%s",
      label, sim_to_seconds(s.end),
      (sim_to_seconds(s.end) - sim_to_seconds(base.end)) /
          sim_to_seconds(base.end) * 100.0,
      static_cast<unsigned long long>(s.client.retries),
      static_cast<unsigned long long>(s.client.timeouts),
      static_cast<unsigned long long>(s.client.aborted_rpcs),
      s.dead ? "  [surrogate lost]" : "");
  if (s.objects_reclaimed > 0) {
    std::printf("  reclaimed %zu obj / %.1f KB", s.objects_reclaimed,
                static_cast<double>(s.bytes_reclaimed) / 1024.0);
  }
  std::printf("%s\n", s.checksum == base.checksum ? "" : "  OUTPUT MISMATCH");
}

}  // namespace

int main() {
  print_header("Failure recovery: completion-time cost of surrogate loss");

  std::vector<Row> rows;
  for (const char* name : {"JavaNote", "Dia", "Biomer", "Voxel", "Tracer"}) {
    const auto& app = apps::app_by_name(name);
    const Sample base = run(app, netsim::FaultPlan{});
    std::printf("  %s  (fault-free: %.2f s, offload at %.2f s)\n", name,
                sim_to_seconds(base.end), sim_to_seconds(base.offload_at));

    netsim::FaultPlan mid_invoke;
    mid_invoke.dead_after =
        base.offload_done +
        std::max<SimDuration>(1, (base.end - base.offload_done) / 2);
    const Sample dead = run(app, mid_invoke);
    print_sample("dead mid-invoke", dead, base);
    rows.push_back(make_row(name, "dead-mid-invoke", dead, base));

    netsim::FaultPlan outage;
    outage.outages.push_back(
        {base.offload_done + sim_ms(1), base.offload_done + sim_ms(61)});
    const Sample transient = run(app, outage);
    print_sample("60 ms outage", transient, base);
    rows.push_back(make_row(name, "60ms-outage", transient, base));

    netsim::FaultPlan lossy;
    lossy.drop_probability = 0.08;
    lossy.drop_seed = 0xFEED5EED;
    const Sample loss = run(app, lossy);
    print_sample("8% message loss", loss, base);
    rows.push_back(make_row(name, "8pct-loss", loss, base));

    netsim::FaultPlan reply_lossy;
    reply_lossy.reply_drop_probability = 0.25;
    reply_lossy.drop_seed = 0x5EED0;
    const Sample ack_loss = run(app, reply_lossy);
    print_sample("25% reply loss", ack_loss, base);
    rows.push_back(make_row(name, "25pct-reply-loss", ack_loss, base));
  }

  bool all_ok = true;
  for (const Row& r : rows) all_ok = all_ok && r.output_ok;

  std::ofstream json("BENCH_fault.json");
  json << "{\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"app\": \"" << r.app << "\", \"regime\": \"" << r.regime
         << "\", \"end_s\": " << r.end_s
         << ", \"recovery_overhead_pct\": " << r.recovery_overhead_pct
         << ", \"retries\": " << r.retries << ", \"timeouts\": " << r.timeouts
         << ", \"duplicates_served\": " << r.duplicates_served
         << ", \"aborted_rpcs\": " << r.aborted
         << ", \"objects_reclaimed\": " << r.objects_reclaimed
         << ", \"bytes_reclaimed\": " << r.bytes_reclaimed
         << ", \"surrogate_lost\": " << (r.surrogate_lost ? "true" : "false")
         << ", \"output_ok\": " << (r.output_ok ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"all_output_ok\": " << (all_ok ? "true" : "false")
       << "\n}\n";
  std::printf("\n  wrote BENCH_fault.json (%zu runs)\n", rows.size());
  return all_ok ? 0 : 1;
}
