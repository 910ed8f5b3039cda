// Batched vs per-op transport on the fig6-style remote-access traces.
//
// Two layers of measurement:
//
//   * Remote-access trace (the acceptance gate) — a fig6-style access trace
//     replayed straight through the endpoint pair: bursts of remote field
//     writes and reads against offloaded objects between yield points, with
//     MINCUT-style colocation groups seeding the read-ahead prefetcher.
//     This isolates the per-access chattiness that dominates the paper's
//     fig6 overhead numbers; batching must cut frames sent by >= 3x while
//     observing byte-identical values.
//
//   * Application runs (context) — the five paper applications on the live
//     platform under a forced early offload, batched vs per-op framing.
//     Their frame mix includes synchronous invokes (which always need their
//     own round trip), so the reduction is smaller but the virtual-time
//     saving is what end users see.
//
// Full runs cover both layers and write BENCH_rpc.json; `--smoke` replays
// the remote-access trace only and writes nothing (CI).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "forced_offload.hpp"
#include "netsim/link.hpp"
#include "platform/platform.hpp"
#include "rpc/endpoint.hpp"
#include "vm/klass.hpp"
#include "vm/vm.hpp"

using namespace aide;

namespace {

const char* const kApps[] = {"JavaNote", "Dia", "Biomer", "Voxel", "Tracer"};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

struct Cell {
  std::uint64_t checksum = 0;
  std::uint64_t frames = 0;       // request frames on the air, both senders
  std::uint64_t ops = 0;          // logical data ops issued, both senders
  std::uint64_t batches = 0;      // multi-op frames
  std::uint64_t batched_ops = 0;  // ops that travelled inside them
  std::uint64_t bytes = 0;
  std::uint64_t readahead_hits = 0;
  SimTime end = 0;
  // Per-iteration virtual latency of the remote-access trace (one sample per
  // UI/compute step); empty for the application runs.
  bench::LatencySummary latency;
};

// --- remote-access trace (the gate) ------------------------------------------

// Replays the fig6 interaction pattern at endpoint scale: every iteration is
// one UI/compute step that updates a handful of fields on an offloaded
// record, re-reads its state (plus a colocated neighbor's), then yields.
// Per-op transport pays one RTT per access; the batched transport defers the
// writes, flushes them aboard the first read, and serves the remaining reads
// from the read-ahead snapshots its prefetch group shipped.
Cell run_trace(bool batching) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  vm::ClassBuilder cb("Rec");
  for (int f = 0; f < 8; ++f) cb.field("f" + std::to_string(f));
  reg->register_class(cb.build());

  SimClock clock;
  netsim::Link link(netsim::LinkParams::wavelan());
  vm::VmConfig ccfg;
  ccfg.node = NodeId{1};
  ccfg.name = "client";
  ccfg.is_client = true;
  ccfg.heap_capacity = 32 << 20;
  vm::VmConfig scfg;
  scfg.node = NodeId{2};
  scfg.name = "surrogate";
  scfg.is_client = false;
  scfg.cpu_speed = 3.5;
  scfg.heap_capacity = 64 << 20;
  vm::Vm client(ccfg, reg, clock);
  vm::Vm surrogate(scfg, reg, clock);
  rpc::Endpoint ce(client, link);
  rpc::Endpoint se(surrogate, link);
  rpc::Endpoint::connect(ce, se);
  ce.set_batching(batching);
  se.set_batching(batching);

  constexpr std::size_t kObjects = 16;
  constexpr std::size_t kGroup = 4;
  std::vector<vm::ObjectRef> objs;
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < kObjects; ++i) {
    const vm::ObjectRef o = client.new_object("Rec");
    client.add_root(o);
    objs.push_back(o);
    ids.push_back(o.id);
  }
  ce.migrate_objects(ids);
  // MINCUT-style colocation groups seed the prefetcher, exactly as
  // Platform::offload_now hands over its partition groups.
  std::vector<std::vector<ObjectId>> groups;
  for (std::size_t i = 0; i < kObjects; i += kGroup) {
    groups.emplace_back(ids.begin() + static_cast<std::ptrdiff_t>(i),
                        ids.begin() + static_cast<std::ptrdiff_t>(i + kGroup));
  }
  ce.set_prefetch_groups(groups);

  Rng rng(0xF16ACCE5);
  std::uint64_t checksum = 0;
  std::vector<SimDuration> step_latencies;
  step_latencies.reserve(200);
  for (int it = 0; it < 200; ++it) {
    const SimTime it0 = clock.now();
    const std::size_t a = rng.next_below(kObjects);
    const std::size_t b = (a / kGroup) * kGroup + rng.next_below(kGroup);

    const std::uint64_t writes = 3 + rng.next_below(6);
    for (std::uint64_t w = 0; w < writes; ++w) {
      client.put_field(
          objs[a], FieldId{static_cast<std::uint32_t>(rng.next_below(8))},
          vm::Value{static_cast<std::int64_t>(it * 31 + static_cast<int>(w))});
    }
    const std::uint64_t reads = 3 + rng.next_below(6);
    for (std::uint64_t r = 0; r < reads; ++r) {
      const vm::Value v = client.get_field(
          objs[a], FieldId{static_cast<std::uint32_t>(rng.next_below(8))});
      if (v.is_int()) checksum = mix(checksum, static_cast<std::uint64_t>(v.as_int()));
    }
    for (std::uint64_t r = 0; r < 4; ++r) {  // colocated neighbor's state
      const vm::Value v = client.get_field(
          objs[b], FieldId{static_cast<std::uint32_t>(rng.next_below(8))});
      if (v.is_int()) checksum = mix(checksum, static_cast<std::uint64_t>(v.as_int()));
    }
    ce.flush_pending();  // yield point
    client.clear_driver_roots();
    step_latencies.push_back(clock.now() - it0);
  }

  Cell c;
  c.checksum = checksum;
  const auto& cl = ce.stats();
  const auto& su = se.stats();
  c.frames = cl.rpcs_sent + su.rpcs_sent;
  c.ops = cl.ops_sent + su.ops_sent;
  c.batches = cl.batches_sent + su.batches_sent;
  c.batched_ops = cl.batched_ops + su.batched_ops;
  c.bytes = cl.bytes_sent + su.bytes_sent;
  c.readahead_hits = cl.readahead_hits + su.readahead_hits;
  c.end = clock.now();
  c.latency = bench::summarize_latency(step_latencies);
  return c;
}

// --- application runs (context) ----------------------------------------------

Cell run_app(const apps::AppInfo& app, const apps::AppParams& params,
             bool batching) {
  platform::PlatformConfig cfg = bench::forced_offload_config();
  // The paper's "Native" enhancement: without it, remote rendering turns
  // every stateless Math call into its own surrogate->client round trip and
  // the invoke traffic swamps the data-access traffic batching targets.
  cfg.enhancements.stateless_natives_local = true;
  cfg.batching = batching;
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::Platform p(reg, cfg);
  bench::ForcedOffload forced(p);
  p.client().add_hooks(&forced);
  Cell c;
  c.checksum = app.run(p.client(), params);
  p.client().remove_hooks(&forced);
  const auto& cl = p.client_endpoint().stats();
  const auto& su = p.surrogate_endpoint().stats();
  c.frames = cl.rpcs_sent + su.rpcs_sent;
  c.ops = cl.ops_sent + su.ops_sent;
  c.batches = cl.batches_sent + su.batches_sent;
  c.batched_ops = cl.batched_ops + su.batched_ops;
  c.bytes = cl.bytes_sent + su.bytes_sent;
  c.readahead_hits = cl.readahead_hits + su.readahead_hits;
  c.end = p.elapsed();
  return c;
}

struct Row {
  std::string app;
  Cell on;
  Cell off;
  bool output_ok = false;
  double reduction = 0.0;
  double ops_per_frame = 0.0;
  double latency_saving_pct = 0.0;
};

void finish_row(Row& r) {
  r.reduction = r.on.frames > 0 ? static_cast<double>(r.off.frames) /
                                      static_cast<double>(r.on.frames)
                                : 0.0;
  r.ops_per_frame =
      r.on.batches > 0 ? static_cast<double>(r.on.batched_ops) /
                             static_cast<double>(r.on.batches)
                       : 1.0;
  r.latency_saving_pct =
      (sim_to_seconds(r.off.end) - sim_to_seconds(r.on.end)) /
      sim_to_seconds(r.off.end) * 100.0;
}

Row measure_trace() {
  Row r;
  r.app = "remote-access";
  r.on = run_trace(true);
  r.off = run_trace(false);
  // Transparency: both transports observed the exact same values.
  r.output_ok = r.on.checksum == r.off.checksum;
  finish_row(r);
  return r;
}

Row measure_app(const char* name) {
  const auto& app = apps::app_by_name(name);
  const auto params = bench::small_app_params();
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  SimClock clock;
  vm::VmConfig cfg;
  cfg.heap_capacity = 64 << 20;
  vm::Vm vm(cfg, reg, clock);
  const std::uint64_t expected = app.run(vm, params);

  Row r;
  r.app = name;
  r.on = run_app(app, params, true);
  r.off = run_app(app, params, false);
  r.output_ok = r.on.checksum == expected && r.off.checksum == expected;
  finish_row(r);
  return r;
}

void print_row(const Row& r) {
  std::printf(
      "  %-13s frames %6llu -> %5llu  (%4.1fx)   ops %6llu   "
      "ops/batch %4.1f   time %7.3f s -> %7.3f s  (%+5.1f%%)%s\n",
      r.app.c_str(), static_cast<unsigned long long>(r.off.frames),
      static_cast<unsigned long long>(r.on.frames), r.reduction,
      static_cast<unsigned long long>(r.on.ops), r.ops_per_frame,
      sim_to_seconds(r.off.end), sim_to_seconds(r.on.end),
      -r.latency_saving_pct, r.output_ok ? "" : "  OUTPUT MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  aide::bench::print_header(
      "RPC batching: multi-op frames vs per-op transport "
      "(WaveLAN; fig6-style remote-access trace + application runs)");

  std::vector<Row> rows;
  rows.push_back(measure_trace());
  if (!smoke) {
    for (const char* name : kApps) rows.push_back(measure_app(name));
  }
  for (const Row& r : rows) print_row(r);

  bool all_ok = true;
  for (const Row& r : rows) all_ok = all_ok && r.output_ok;
  const double gate_reduction = rows.front().reduction;
  const bool gate_ok = gate_reduction >= 3.0;
  std::printf(
      "\n  remote-access trace: %.1fx frame reduction, %llu read-ahead hits "
      "%s\n",
      gate_reduction,
      static_cast<unsigned long long>(rows.front().on.readahead_hits),
      gate_ok ? "(gate: >= 3x OK)" : "(GATE FAILED: < 3x)");
  const auto& lat_on = rows.front().on.latency;
  const auto& lat_off = rows.front().off.latency;
  std::printf(
      "  per-step virtual latency: p50 %.0f -> %.0f ns   p95 %.0f -> %.0f ns"
      "   p99 %.0f -> %.0f ns\n",
      lat_off.p50_ns, lat_on.p50_ns, lat_off.p95_ns, lat_on.p95_ns,
      lat_off.p99_ns, lat_on.p99_ns);

  if (!smoke) {
    std::ofstream json("BENCH_rpc.json");
    json << "{\n  \"gate\": \"remote-access\""
         << ",\n  \"gate_frame_reduction\": " << gate_reduction
         << ",\n  \"trace_step_latency_legacy\": "
         << bench::latency_json(lat_off)
         << ",\n  \"trace_step_latency_batched\": "
         << bench::latency_json(lat_on)
         << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      json << "    {\"workload\": \"" << r.app << "\""
           << ", \"frames_legacy\": " << r.off.frames
           << ", \"frames_batched\": " << r.on.frames
           << ", \"frame_reduction\": " << r.reduction
           << ", \"ops\": " << r.on.ops
           << ", \"batches\": " << r.on.batches
           << ", \"ops_per_batch\": " << r.ops_per_frame
           << ", \"readahead_hits\": " << r.on.readahead_hits
           << ", \"bytes_legacy\": " << r.off.bytes
           << ", \"bytes_batched\": " << r.on.bytes
           << ", \"end_s_legacy\": " << sim_to_seconds(r.off.end)
           << ", \"end_s_batched\": " << sim_to_seconds(r.on.end)
           << ", \"latency_saving_pct\": " << r.latency_saving_pct
           << ", \"output_ok\": " << (r.output_ok ? "true" : "false") << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"all_output_ok\": " << (all_ok ? "true" : "false")
         << ",\n  \"gate_ok\": " << (gate_ok ? "true" : "false") << "\n}\n";
    std::printf("  wrote BENCH_rpc.json (%zu workloads)\n", rows.size());
  }

  std::printf("  %s\n", all_ok && gate_ok ? "OK" : "FAILED");
  return all_ok && gate_ok ? 0 : 1;
}
