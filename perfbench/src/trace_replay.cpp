// trace_replay: set-up records each of the five apps once; a pass replays,
// through emul::Emulator, the Figure 7 policy grid for JavaNote, Dia and
// Biomer (5 thresholds x 3 tolerances x 4 min-free = 60 memory emulations per
// app) and the four Figure 10 Native/Array CPU emulations of all five apps.
// One request is one emulation. No VM and no rpc run here.
//
// The emulator's monitor and partitioner run inside it, out of reach of a
// decorator, so the traced run estimates them: the partitioner from every
// decision's compute_seconds, the monitor by replaying each recorded trace
// into a standalone ExecutionMonitor through its public hooks.
#include <exception>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "monitor/monitor.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace aide;

constexpr std::size_t kApps = 5;
constexpr std::size_t kGridApps = 3;  // JavaNote, Dia, Biomer
constexpr double kThresholds[] = {0.02, 0.05, 0.10, 0.25, 0.50};
constexpr int kTolerances[] = {1, 2, 3};
constexpr double kMinFrees[] = {0.10, 0.20, 0.40, 0.80};

struct Job {
  std::size_t app = 0;
  bool memory = true;                 // emulate_memory, else emulate_cpu
  monitor::TriggerPolicy trigger;     // memory
  double min_free = 0.20;             // memory
  bool native = false, array = false;  // cpu
};

std::vector<Job> make_jobs() {
  std::vector<Job> jobs;
  for (std::size_t app = 0; app < kGridApps; ++app) {
    for (const double threshold : kThresholds) {
      for (const int tolerance : kTolerances) {
        for (const double min_free : kMinFrees) {
          Job j;
          j.app = app;
          j.trigger.low_free_threshold = threshold;
          j.trigger.consecutive_reports = tolerance;
          j.min_free = min_free;
          jobs.push_back(j);
        }
      }
    }
  }
  for (std::size_t app = 0; app < kApps; ++app) {
    for (const bool native : {false, true}) {
      for (const bool array : {false, true}) {
        Job j;
        j.app = app;
        j.memory = false;
        j.native = native;
        j.array = array;
        jobs.push_back(j);
      }
    }
  }
  return jobs;
}

// The deterministic part of one emulation's result.
struct JobOut {
  bool ok = false;
  SimDuration emulated = 0;
  std::uint64_t remote_invocations = 0, remote_accesses = 0;
  std::size_t offloads = 0;
  friend bool operator==(const JobOut&, const JobOut&) = default;
};

// Partitioner cost gathered from emulation results.
struct DecideTally {
  double decide_s = 0.0;
  std::uint64_t evaluations = 0, accepted = 0;
  std::size_t mincut_nodes_max = 0;

  void add(const partition::PartitionDecision& d) {
    decide_s += d.compute_seconds;
    evaluations += 1;
    mincut_nodes_max = std::max(mincut_nodes_max, d.mincut_nodes);
  }
};

JobOut run_job(const std::vector<bench::RecordedApp>& apps, const Job& j,
               DecideTally* decide) {
  JobOut out;
  try {
    const bench::RecordedApp& app = apps[j.app];
    const emul::EmulationResult r =
        j.memory ? bench::emulate_memory(app, j.trigger, j.min_free)
                 : bench::emulate_cpu(app, j.native, j.array);
    out.ok = true;
    out.emulated = r.emulated_time;
    out.remote_invocations = r.remote_invocations;
    out.remote_accesses = r.remote_accesses;
    out.offloads = r.offloads.size();
    if (decide != nullptr) {
      for (const emul::OffloadSnapshot& o : r.offloads) decide->add(o.decision);
      for (const partition::PartitionDecision& d : r.declined) decide->add(d);
      decide->accepted += r.offloads.size();
    }
  } catch (const std::exception&) {
    out.ok = false;
  }
  return out;
}

// One recorded trace replayed into a standalone ExecutionMonitor, making the
// same monitor calls the emulator makes per event.
struct MonitorReplay {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::size_t nodes = 0, edges = 0;
};

MonitorReplay replay_monitor(const bench::RecordedApp& app, bool arrays) {
  monitor::MonitorConfig cfg;
  cfg.granularity.arrays_as_objects = arrays;
  cfg.granularity.object_granularity_classes = {app.registry->int_array_class()};
  monitor::ExecutionMonitor mon(app.registry, cfg);
  constexpr NodeId kNode{1};
  MonitorReplay out;
  std::uint32_t cycle = 0;
  const auto t0 = WallClock::now();
  for (const emul::TraceEvent& e : app.trace.events) {
    switch (e.type) {
      case emul::TraceEventType::alloc:
        mon.on_alloc(kNode, e.obj_a, e.cls_a, e.bytes, e.t);
        break;
      case emul::TraceEventType::free_obj:
        mon.on_free(kNode, e.obj_a, e.cls_a, e.bytes, e.t);
        break;
      case emul::TraceEventType::resize:
        mon.on_resize(kNode, e.obj_a, e.cls_a, e.aux1);
        break;
      case emul::TraceEventType::method_enter:
        continue;
      case emul::TraceEventType::method_exit:
        mon.on_method_exit(kNode, e.cls_a, e.obj_a, e.method, e.bytes, e.t);
        (void)mon.component_of(e.cls_a, e.obj_a);
        out.calls += 1;
        break;
      case emul::TraceEventType::invoke: {
        const bool is_native = (e.flags & emul::kFlagNative) != 0;
        const bool is_static = (e.flags & emul::kFlagStatic) != 0;
        (void)mon.component_of(e.cls_a, e.obj_a);
        if (!is_native && !is_static) (void)mon.component_of(e.cls_b, e.obj_b);
        vm::InvokeEvent ev;
        ev.vm = kNode;
        ev.caller_cls = e.cls_a;
        ev.caller_obj = e.obj_a;
        ev.callee_cls = e.cls_b;
        ev.callee_obj = e.obj_b;
        ev.method = e.method;
        ev.is_native = is_native;
        ev.is_static = is_static;
        ev.is_stateless = (e.flags & emul::kFlagStateless) != 0;
        ev.bytes = static_cast<std::uint64_t>(e.bytes);
        ev.t = e.t;
        mon.on_invoke(ev);
        out.calls += is_native || is_static ? 1 : 2;
        break;
      }
      case emul::TraceEventType::access: {
        const bool is_static = (e.flags & emul::kFlagStatic) != 0;
        (void)mon.component_of(e.cls_a, e.obj_a);
        if (!is_static) (void)mon.component_of(e.cls_b, e.obj_b);
        vm::AccessEvent ev;
        ev.vm = kNode;
        ev.from_cls = e.cls_a;
        ev.from_obj = e.obj_a;
        ev.to_cls = e.cls_b;
        ev.to_obj = e.obj_b;
        ev.is_write = (e.flags & emul::kFlagWrite) != 0;
        ev.is_static = is_static;
        ev.bytes = static_cast<std::uint64_t>(e.bytes);
        ev.t = e.t;
        mon.on_access(ev);
        out.calls += is_static ? 1 : 2;
        break;
      }
      case emul::TraceEventType::gc: {
        vm::GcReport rep;
        rep.cycle = ++cycle;
        rep.used_after = e.bytes;
        rep.capacity = e.aux1;
        rep.freed = e.aux2;
        mon.on_gc(kNode, rep);
        break;
      }
    }
    out.calls += 1;
  }
  out.ns = static_cast<std::int64_t>(seconds_since(t0) * 1e9);
  out.nodes = mon.graph().node_count();
  out.edges = mon.graph().edge_count();
  return out;
}

struct Setup {
  std::vector<bench::RecordedApp> apps;
  std::vector<JobOut> warm;  // untraced warm-up pass, one entry per job
  double record_s = 0.0;
};

}  // namespace

Outcome run_trace_replay(const Options& opt) {
  Outcome out;
  const std::vector<Job> jobs = make_jobs();
  apps::AppParams params;
  params.seed = opt.seed;

  Setup s;
  timed_setup(out, opt.setup_reps > 0 ? opt.setup_reps : 3, [&] {
    s = Setup{};
    for (const apps::AppInfo& app : apps::all_apps()) {
      s.apps.push_back(bench::record_app(app.name, params));
      s.record_s += s.apps.back().record_wall_seconds;
    }
    for (const Job& j : jobs) {
      s.warm.push_back(run_job(s.apps, j, nullptr));
      out.attempted += 1;
      if (!s.warm.back().ok) out.failed += 1;
    }
  });
  std::uint64_t events_per_pass = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    events_per_pass += s.apps[jobs[i].app].trace.size();
    out.virt_ns += s.warm[i].emulated;
    out.digest = mix(out.digest, static_cast<std::uint64_t>(s.warm[i].emulated));
    out.digest = mix(out.digest, s.warm[i].remote_invocations + s.warm[i].remote_accesses);
  }
  if (opt.emit_reference) return out;

  const auto check = [&](std::size_t i, const JobOut& r) {
    out.attempted += 1;
    if (!r.ok || !(r == s.warm[i])) out.failed += 1;
  };

  if (!opt.trace) {
    Reservoir wall_us;
    HostSpeed host;
    const auto t_start = WallClock::now();
    // Whole passes only, so every run weighs the emulations equally.
    for (std::size_t n = 0; n % jobs.size() != 0 || seconds_since(t_start) < opt.seconds; ++n) {
      const std::size_t i = n % jobs.size();
      const auto t0 = WallClock::now();
      const JobOut r = run_job(s.apps, jobs[i], nullptr);
      const double wall_s = seconds_since(t0);
      check(i, r);
      wall_us.add(wall_s * 1e6);
      host.add(i, wall_s);
    }
    const double jobs_per_s = add_request_metrics(
        out, wall_us, host, jobs.size(), static_cast<double>(jobs.size()));
    out.metrics.push_back({"events_per_s",
                           jobs_per_s * static_cast<double>(events_per_pass) /
                               static_cast<double>(jobs.size()),
                           "1/s", false});
    out.metrics.push_back({"virt_s", sim_to_seconds(out.virt_ns), "s", false});
    return out;
  }

  // Traced run: whole untraced and traced passes alternate.
  SpanRecorder rec(200000);
  DecideTally decide;
  double untraced_s = 0.0, traced_s = 0.0, passes = 0.0;
  std::int64_t monitor_ns = 0;
  std::uint64_t monitor_calls = 0, graph_nodes = 0, graph_edges = 0;
  const auto t_start = WallClock::now();
  while (passes == 0 || seconds_since(t_start) < opt.seconds) {
    auto t0 = WallClock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) check(i, run_job(s.apps, jobs[i], nullptr));
    untraced_s += seconds_since(t0);
    t0 = WallClock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Span replay(&rec, Layer::emul);
      check(i, run_job(s.apps, jobs[i], &decide));
    }
    traced_s += seconds_since(t0);

    // Monitor estimate: each trace once per granularity, scaled by how many
    // of this pass's emulations replay it at that granularity.
    MonitorReplay by_granularity[kApps][2];
    for (std::size_t a = 0; a < kApps; ++a) {
      for (const bool arrays : {false, true}) {
        by_granularity[a][arrays ? 1 : 0] = replay_monitor(s.apps[a], arrays);
      }
      graph_nodes += by_granularity[a][0].nodes;
      graph_edges += by_granularity[a][0].edges;
    }
    for (const Job& j : jobs) {
      const MonitorReplay& m = by_granularity[j.app][!j.memory && j.array ? 1 : 0];
      monitor_ns += m.ns;
      monitor_calls += m.calls;
    }
    passes += 1;
  }

  auto& L = out.layers;
  const double decide_ms = decide.decide_s * 1e3 / passes;
  const double monitor_ms = static_cast<double>(monitor_ns) / 1e6 / passes;
  L["monitor.self_wall_ms"] = monitor_ms;
  L["monitor.events"] = static_cast<double>(monitor_calls) / passes;
  L["monitor.ns_per_event"] = ratio(static_cast<double>(monitor_ns), static_cast<double>(monitor_calls));
  L["monitor.graph_nodes"] = static_cast<double>(graph_nodes) / passes;
  L["monitor.graph_edges"] = static_cast<double>(graph_edges) / passes;
  L["partition.decide_wall_ms"] = decide_ms;
  L["partition.evaluations"] = static_cast<double>(decide.evaluations) / passes;
  L["partition.accept_ratio"] = ratio(static_cast<double>(decide.accepted), static_cast<double>(decide.evaluations));
  L["partition.mincut_nodes_max"] = static_cast<double>(decide.mincut_nodes_max);
  const SpanCost cost = calibrate_span_cost();
  L["emul.self_wall_ms"] = rec.totals().corrected_self_ns(Layer::emul, cost) / 1e6 / passes - monitor_ms - decide_ms;
  L["emul.events"] = static_cast<double>(events_per_pass);
  L["emul.record_wall_ms"] = s.record_s * 1e3;
  add_trace_totals(out, rec, cost, passes, traced_s, untraced_s);
  return out;
}

}  // namespace perfbench
