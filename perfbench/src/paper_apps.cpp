// paper_apps: the five Table 1 applications at paper size, run in order, each
// on a fresh Platform with the default PlatformConfig. One request is one app
// run, Platform construction and teardown included.
#include <memory>
#include <optional>

#include "analysis/analyzer.hpp"
#include "analysis/effects.hpp"
#include "apps/apps.hpp"
#include "platform/platform.hpp"
#include "probes.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace aide;

constexpr std::size_t kApps = 5;

// Probes the traced run installs; a probe that perturbs the program is
// dropped and its layer reported as unmeasured (-1).
enum Probe : unsigned {
  kPeer = 1,     // TimingPeer on both VMs
  kMonitor = 2,  // TimedMonitor in place of the ExecutionMonitor
  kFrames = 4,   // FrameObserver on both VMs
  kOffload = 8,  // OffloadTrigger with auto_offload off
  kAllProbes = kPeer | kMonitor | kFrames | kOffload,
};

// What one run of one app computed, plus the counters the traced run reports.
struct AppRun {
  std::uint64_t checksum = 0;
  SimDuration elapsed = 0;
  rpc::EndpointStats client_ep;
  rpc::EndpointStats surrogate_ep;
  netsim::LinkStats link;
  vm::VmStats client_vm;
  vm::VmStats surrogate_vm;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  OffloadTally offload;

  // Everything the program computes; tracing must leave all of it unchanged.
  [[nodiscard]] bool same_output(const AppRun& o) const {
    return checksum == o.checksum && elapsed == o.elapsed &&
           client_ep == o.client_ep && surrogate_ep == o.surrogate_ep &&
           link == o.link;
  }
};

struct Setup {
  std::vector<std::shared_ptr<vm::ClassRegistry>> registries;
  std::vector<std::uint64_t> vm_checksums;  // single generous-heap VM
  std::vector<AppRun> warm;                 // untraced warm-up pass
};

AppRun collect(platform::Platform& p, std::uint64_t checksum) {
  AppRun r;
  r.checksum = checksum;
  r.elapsed = p.elapsed();
  r.client_ep = p.client_endpoint().stats();
  r.surrogate_ep = p.surrogate_endpoint().stats();
  r.link = p.link().stats();
  r.client_vm = p.client().stats();
  r.surrogate_vm = p.surrogate().stats();
  r.graph_nodes = p.exec_monitor().graph().node_count();
  r.graph_edges = p.exec_monitor().graph().edge_count();
  return r;
}

AppRun run_untraced(const Setup& s, std::size_t ix,
                    const apps::AppParams& params) {
  platform::Platform p(s.registries[ix]);
  const std::uint64_t cs = apps::all_apps()[ix].run(p.client(), params);
  return collect(p, cs);
}

// One traced app run: the request is a harness span holding the Platform
// constructor, the app itself (a vm span) and the teardown.
AppRun run_traced(const Setup& s, std::size_t ix, const apps::AppParams& params,
                  unsigned probes, SpanRecorder& rec) {
  Span request(&rec, Layer::harness);
  platform::PlatformConfig cfg;
  cfg.auto_offload = (probes & kOffload) == 0;
  std::optional<platform::Platform> p;
  {
    Span ctor(&rec, Layer::platform_ctor);
    p.emplace(s.registries[ix], cfg);
  }
  vm::Vm& client = p->client();
  vm::Vm& surrogate = p->surrogate();
  TimedMonitor monitor(p->exec_monitor(), rec);
  if ((probes & kMonitor) != 0) {
    client.remove_hooks(&p->exec_monitor());
    surrogate.remove_hooks(&p->exec_monitor());
    client.add_hooks(&monitor);
    surrogate.add_hooks(&monitor);
  }
  std::optional<OffloadTrigger> offload;
  if ((probes & kOffload) != 0) offload.emplace(*p, rec);
  FrameObserver frames(rec);
  if ((probes & kFrames) != 0) {
    frames.watch(client);
    frames.watch(surrogate);
  }
  TimingPeer client_peer(p->client_endpoint(), rec);
  TimingPeer surrogate_peer(p->surrogate_endpoint(), rec);
  if ((probes & kPeer) != 0) {
    client.set_peer(&client_peer);
    surrogate.set_peer(&surrogate_peer);
  }

  std::uint64_t cs = 0;
  {
    Span app(&rec, Layer::vm);
    cs = apps::all_apps()[ix].run(client, params);
  }
  AppRun r = collect(*p, cs);
  if (offload.has_value()) r.offload = offload->tally();

  // Unwind the probes before the Platform goes away.
  client.set_peer(&p->client_endpoint());
  surrogate.set_peer(&p->surrogate_endpoint());
  frames.unwatch_all();
  offload.reset();
  client.remove_hooks(&monitor);
  surrogate.remove_hooks(&monitor);
  p.reset();
  return r;
}

Setup make_setup(const apps::AppParams& params, Outcome& out) {
  Setup s;
  for (const apps::AppInfo& app : apps::all_apps()) {
    auto reg = std::make_shared<vm::ClassRegistry>();
    app.register_classes(*reg);
    // The reference checksum: the same app on one VM with a generous heap.
    SimClock clock;
    vm::VmConfig cfg;
    cfg.heap_capacity = std::int64_t{64} << 20;
    vm::Vm single(cfg, reg, clock);
    s.vm_checksums.push_back(app.run(single, params));
    s.registries.push_back(std::move(reg));
  }
  for (std::size_t ix = 0; ix < kApps; ++ix) {
    s.warm.push_back(run_untraced(s, ix, params));
    out.attempted += 1;
    if (s.warm[ix].checksum != s.vm_checksums[ix]) out.failed += 1;
  }
  return s;
}

// Per-pass sums the traced run divides by its pass count.
struct Tally {
  std::uint64_t passes = 0;
  OffloadTally offload;
  std::uint64_t vm_ops = 0, vm_remote_ops = 0, allocations = 0, gc_cycles = 0;
  std::uint64_t graph_nodes = 0, graph_edges = 0;
  rpc::EndpointStats rpc;
  std::uint64_t net_messages = 0, net_bytes = 0;
  double gates_s = 0.0;
  double traced_s = 0.0, untraced_s = 0.0;

  void add(const AppRun& r) {
    offload.evaluations += r.offload.evaluations;
    offload.accepted += r.offload.accepted;
    offload.offload_ns += r.offload.offload_ns;
    offload.decide_s += r.offload.decide_s;
    offload.mincut_nodes_max =
        std::max(offload.mincut_nodes_max, r.offload.mincut_nodes_max);
    for (const vm::VmStats* v : {&r.client_vm, &r.surrogate_vm}) {
      vm_ops += v->invocations + v->field_accesses;
      vm_remote_ops += v->remote_invocations + v->remote_field_accesses;
      allocations += v->allocations;
      gc_cycles += v->gc_cycles;
    }
    graph_nodes += r.graph_nodes;
    graph_edges += r.graph_edges;
    rpc += r.client_ep;
    rpc += r.surrogate_ep;
    net_messages += r.link.messages;
    net_bytes += r.link.bytes;
  }
};

void report_layers(const Tally& t, const SpanRecorder& rec,
                   const SpanCost& cost, unsigned probes, Outcome& out) {
  const double n = static_cast<double>(t.passes);
  const auto self_ns = [&](Layer l) { return rec.totals().corrected_self_ns(l, cost); };
  const auto ms = [&](Layer l) { return self_ns(l) / 1e6 / n; };
  const auto per = [&](double v) { return v / n; };
  const auto unmeasured = [&](unsigned probe, double v) {
    return (probes & probe) != 0 ? v : -1.0;
  };
  auto& L = out.layers;
  L["vm.self_wall_ms"] = ms(Layer::vm);
  L["vm.ops"] = per(static_cast<double>(t.vm_ops));
  L["vm.ns_per_op"] = ratio(self_ns(Layer::vm), static_cast<double>(t.vm_ops));
  L["vm.remote_op_share"] = ratio(static_cast<double>(t.vm_remote_ops),
                                  static_cast<double>(t.vm_ops));
  L["vm.allocations"] = per(static_cast<double>(t.allocations));
  L["vm.gc_cycles"] = per(static_cast<double>(t.gc_cycles));

  const double mon_events = static_cast<double>(rec.totals().count(Layer::monitor));
  L["monitor.self_wall_ms"] = unmeasured(kMonitor, ms(Layer::monitor));
  L["monitor.events"] = unmeasured(kMonitor, per(mon_events));
  L["monitor.ns_per_event"] = unmeasured(
      kMonitor, ratio(self_ns(Layer::monitor), mon_events));
  L["monitor.graph_nodes"] = per(static_cast<double>(t.graph_nodes));
  L["monitor.graph_edges"] = per(static_cast<double>(t.graph_edges));

  const double decide_ms = t.offload.decide_s * 1e3 / n;
  const double offload_ms = static_cast<double>(t.offload.offload_ns) / 1e6 / n;
  L["partition.decide_wall_ms"] = unmeasured(kOffload, decide_ms);
  L["partition.evaluations"] =
      unmeasured(kOffload, per(static_cast<double>(t.offload.evaluations)));
  L["partition.accept_ratio"] = unmeasured(
      kOffload, ratio(static_cast<double>(t.offload.accepted),
                      static_cast<double>(t.offload.evaluations)));
  L["partition.mincut_nodes_max"] =
      unmeasured(kOffload, static_cast<double>(t.offload.mincut_nodes_max));
  L["platform.offload_wall_ms"] = unmeasured(kOffload, offload_ms);
  L["rpc.migrate_wall_ms"] = unmeasured(kOffload, offload_ms - decide_ms);

  const double rpc_calls = static_cast<double>(rec.totals().count(Layer::rpc));
  L["rpc.self_wall_ms"] = unmeasured(kPeer, ms(Layer::rpc));
  L["rpc.calls"] = unmeasured(kPeer, per(rpc_calls));
  L["rpc.ns_per_op"] = unmeasured(
      kPeer, ratio(self_ns(Layer::rpc), rpc_calls));
  add_rpc_counters(out, t.rpc, n);
  L["netsim.messages"] = per(static_cast<double>(t.net_messages));
  L["netsim.bytes"] = per(static_cast<double>(t.net_bytes));

  L["platform.ctor_wall_ms"] = ms(Layer::platform_ctor);
  L["harness.self_wall_ms"] = ms(Layer::harness);
  L["analysis.gates_wall_ms"] = t.gates_s * 1e3 / n;
  add_trace_totals(out, rec, cost, n, t.traced_s, t.untraced_s);
}

}  // namespace

Outcome run_paper_apps(const Options& opt) {
  Outcome out;
  apps::AppParams params;
  params.seed = opt.seed;

  Setup s;
  timed_setup(out, opt.setup_reps > 0 ? opt.setup_reps : 5,
              [&] { s = make_setup(params, out); });

  for (const AppRun& r : s.warm) {
    out.virt_ns += r.elapsed;
    out.digest = mix(mix(out.digest, r.checksum), static_cast<std::uint64_t>(r.elapsed));
  }
  if (opt.emit_reference) return out;

  // A request is correct when it reproduces the single-VM checksum and the
  // warm-up pass's virtual time exactly.
  const auto check = [&](std::size_t ix, const AppRun& r) {
    out.attempted += 1;
    if (r.checksum != s.vm_checksums[ix] || r.elapsed != s.warm[ix].elapsed) {
      out.failed += 1;
    }
  };

  if (!opt.trace) {
    Reservoir wall_us;
    HostSpeed host;
    const auto t_start = WallClock::now();
    // Whole passes only, so every run weighs the five apps equally.
    for (std::size_t i = 0; i % kApps != 0 || seconds_since(t_start) < opt.seconds; ++i) {
      const std::size_t ix = i % kApps;
      const auto t0 = WallClock::now();
      const AppRun r = run_untraced(s, ix, params);
      const double wall_s = seconds_since(t0);
      check(ix, r);
      wall_us.add(wall_s * 1e6);
      host.add(ix, wall_s);
    }
    const double apps_per_s = add_request_metrics(out, wall_us, host, kApps, kApps);
    out.metrics.push_back({"apps_per_s", apps_per_s, "1/s", false});
    const auto by_app = host.by_kind(kApps, false);
    for (std::size_t ix = 0; ix < kApps; ++ix) {
      out.metrics.push_back({apps::all_apps()[ix].name + "_wall_us_p50",
                             median(by_app[ix]) * 1e6, "us", false});
    }
    out.metrics.push_back({"virt_s", sim_to_seconds(out.virt_ns), "s", false});
    return out;
  }

  // Traced run. Calibrate first: keep the largest probe set whose traced
  // pass reproduces the untraced outputs of every app exactly.
  unsigned probes = 0;
  for (const unsigned candidate :
       {unsigned{kAllProbes}, kAllProbes & ~unsigned{kOffload},
        kAllProbes & ~unsigned{kMonitor}, unsigned{kOffload | kMonitor}, 0u}) {
    SpanRecorder scratch;
    bool transparent = true;
    for (std::size_t ix = 0; ix < kApps && transparent; ++ix) {
      transparent = run_traced(s, ix, params, candidate, scratch)
                        .same_output(s.warm[ix]);
    }
    if (transparent) {
      probes = candidate;
      break;
    }
  }
  if (probes != kAllProbes) {
    out.notes.push_back("probe set reduced to mask " + std::to_string(probes) +
                        " to keep the traced run transparent");
  }

  SpanRecorder rec(200000);
  Tally t;
  std::vector<SpanTotals> per_app(kApps);
  const auto t_start = WallClock::now();
  while (t.passes == 0 || seconds_since(t_start) < opt.seconds) {
    for (std::size_t ix = 0; ix < kApps; ++ix) {
      const auto t0 = WallClock::now();
      check(ix, run_untraced(s, ix, params));
      t.untraced_s += seconds_since(t0);
    }
    for (std::size_t ix = 0; ix < kApps; ++ix) {
      const SpanTotals before = rec.totals();
      const auto t0 = WallClock::now();
      const AppRun r = run_traced(s, ix, params, probes, rec);
      t.traced_s += seconds_since(t0);
      per_app[ix] += rec.totals();
      per_app[ix] -= before;
      check(ix, r);
      out.attempted += 1;
      if (!r.same_output(s.warm[ix])) out.failed += 1;
      t.add(r);
    }
    const auto g0 = WallClock::now();
    for (const auto& reg : s.registries) {
      const auto a = analysis::analyze(*reg);
      const auto v = analysis::verify(*reg);
      if (!a.ok() || v.count(analysis::Severity::error) > 0) out.failed += 1;
    }
    t.gates_s += seconds_since(g0);
    t.passes += 1;
  }
  const SpanCost cost = calibrate_span_cost();
  report_layers(t, rec, cost, probes, out);
  for (std::size_t ix = 0; ix < kApps; ++ix) {
    out.notes.push_back(apps::all_apps()[ix].name + " self wall ms per run:" +
                        layer_breakdown(per_app[ix], cost,
                                        static_cast<double>(t.passes)));
  }
  return out;
}

}  // namespace perfbench
