#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "vm/vm.hpp"

namespace aide::bench {

namespace {

double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  std::size_t ix = static_cast<std::size_t>(rank);
  if (static_cast<double>(ix) < rank) ix += 1;  // ceil
  if (ix == 0) ix = 1;
  return sorted[std::min(ix, sorted.size()) - 1];
}

}  // namespace

LatencySummary summarize_latency(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean_ns = sum / static_cast<double>(samples.size());
  s.p50_ns = nearest_rank(samples, 50.0);
  s.p95_ns = nearest_rank(samples, 95.0);
  s.p99_ns = nearest_rank(samples, 99.0);
  s.max_ns = samples.back();
  return s;
}

LatencySummary summarize_latency(const std::vector<SimDuration>& samples) {
  std::vector<double> d;
  d.reserve(samples.size());
  for (const SimDuration v : samples) d.push_back(static_cast<double>(v));
  return summarize_latency(std::move(d));
}

std::string latency_json(const LatencySummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\": %zu, \"mean_ns\": %.1f, \"p50_ns\": %.1f, "
                "\"p95_ns\": %.1f, \"p99_ns\": %.1f, \"max_ns\": %.1f}",
                s.count, s.mean_ns, s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns);
  return std::string(buf);
}

std::string wall_clock_provenance_json(const char* build_type) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  return std::string("  \"clock\": \"wall\",\n  \"build_type\": \"") +
         build_type + "\",\n  \"compiler\": \"" + compiler + "\",\n";
}

RecordedApp record_app(const std::string& name, apps::AppParams params) {
  RecordedApp out;
  out.params = params;
  out.registry = std::make_shared<vm::ClassRegistry>();
  const auto& app = apps::app_by_name(name);
  app.register_classes(*out.registry);

  SimClock clock;
  vm::VmConfig cfg;
  cfg.name = "prototype";
  cfg.heap_capacity = std::int64_t{64} << 20;
  // Frequent GC reports give the emulator a dense resource signal.
  cfg.gc_alloc_count_threshold = 1024;
  cfg.gc_alloc_bytes_divisor = 256;
  vm::Vm vm(cfg, out.registry, clock);

  emul::TraceRecorder recorder;
  vm.add_hooks(&recorder);
  const auto wall0 = std::chrono::steady_clock::now();
  out.checksum = app.run(vm, params);
  out.record_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  out.trace = recorder.take();
  return out;
}

emul::EmulationResult emulate_memory(const RecordedApp& app,
                                     monitor::TriggerPolicy trigger,
                                     double min_free_fraction,
                                     std::int64_t heap,
                                     bool stateless_natives_local,
                                     bool arrays_as_objects) {
  emul::EmulatorConfig cfg;
  cfg.trigger_mode = emul::TriggerMode::memory_gc;
  cfg.trigger = trigger;
  cfg.min_free_fraction = min_free_fraction;
  cfg.heap_capacity = heap;
  cfg.objective = partition::Objective::free_memory;
  // Figure 6: "the same processor speed was used for both the client and
  // the surrogate".
  cfg.surrogate_speedup = 1.0;
  cfg.stateless_natives_local = stateless_natives_local;
  cfg.arrays_as_objects = arrays_as_objects;
  // The memory experiments model near-exhaustion GC pressure (see
  // EmulatorConfig::gc_pressure_cost_ns_per_live_byte).
  cfg.gc_pressure_cost_ns_per_live_byte = 100.0;
  emul::Emulator emu(app.registry, cfg);
  return emu.run(app.trace);
}

emul::EmulationResult emulate_cpu(const RecordedApp& app,
                                  bool stateless_natives_local,
                                  bool arrays_as_objects,
                                  double surrogate_speedup,
                                  double eval_at_fraction) {
  emul::EmulatorConfig cfg;
  cfg.trigger_mode = emul::TriggerMode::trace_fraction;
  cfg.eval_at_fraction = eval_at_fraction;
  cfg.objective = partition::Objective::speed_up;
  cfg.surrogate_speedup = surrogate_speedup;
  cfg.heap_capacity = std::int64_t{64} << 20;
  cfg.stateless_natives_local = stateless_natives_local;
  cfg.arrays_as_objects = arrays_as_objects;
  emul::Emulator emu(app.registry, cfg);
  return emu.run(app.trace);
}

}  // namespace aide::bench
