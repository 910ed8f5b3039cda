// Shared helpers for the per-figure/per-table benchmark harnesses.
//
// The harnesses follow the paper's methodology: run an application to
// completion on a single (well-provisioned) prototype VM while recording an
// execution trace, then replay the trace through the emulator under the
// policy and enhancement configuration each experiment calls for.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "emul/emulator.hpp"
#include "emul/recorder.hpp"
#include "monitor/resource_monitor.hpp"

namespace aide::bench {

// Percentile summary of a latency sample set (virtual nanoseconds).
// Percentiles use the nearest-rank method over the sorted samples, so the
// summary of a deterministic run is itself deterministic.
struct LatencySummary {
  std::size_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
};

// Summarizes the samples (takes a copy; sorts it internally).
LatencySummary summarize_latency(std::vector<double> samples);
LatencySummary summarize_latency(const std::vector<SimDuration>& samples);

// `{"count": N, "mean_ns": ..., "p50_ns": ..., "p95_ns": ..., "p99_ns": ...,
// "max_ns": ...}` — one JSON object, no trailing newline, for embedding in a
// harness's BENCH_*.json.
std::string latency_json(const LatencySummary& s);

// The paper's "initial" policy (Figure 6): offloading threshold of 5%
// (300 KB of a 6 MB heap), three successive low reports, free >= 20%.
inline monitor::TriggerPolicy initial_trigger() {
  monitor::TriggerPolicy p;
  p.low_free_threshold = 0.05;
  p.consecutive_reports = 3;
  return p;
}

constexpr std::int64_t kPaperHeap = std::int64_t{6} << 20;  // 6 MB

struct RecordedApp {
  std::shared_ptr<vm::ClassRegistry> registry;
  emul::Trace trace;
  apps::AppParams params;
  std::uint64_t checksum = 0;
  double record_wall_seconds = 0.0;
};

// Records an application's execution trace on a single prototype VM with a
// generous heap (the paper extracted traces "while running the application
// to completion on a single PC").
RecordedApp record_app(const std::string& name, apps::AppParams params = {});

// Emulates a recorded app under the memory objective (Figures 6-8).
emul::EmulationResult emulate_memory(
    const RecordedApp& app, monitor::TriggerPolicy trigger = initial_trigger(),
    double min_free_fraction = 0.20, std::int64_t heap = kPaperHeap,
    bool stateless_natives_local = false, bool arrays_as_objects = false);

// Emulates a recorded app under the CPU objective (Figure 10).
emul::EmulationResult emulate_cpu(const RecordedApp& app,
                                  bool stateless_natives_local,
                                  bool arrays_as_objects,
                                  double surrogate_speedup = 3.5,
                                  double eval_at_fraction = 0.25);

// The opening members of a wall-clock BENCH file: the clock its numbers
// read, the CMAKE_BUILD_TYPE the bench was compiled under and the compiler.
// Each line is indented two spaces and ends with a comma.
std::string wall_clock_provenance_json(const char* build_type);

// Formatting helpers shared by the harness main()s.
inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void print_row(const char* label, double original_s, double total_s) {
  std::printf("  %-10s original %8.1f s   with offloading %8.1f s   overhead %+6.1f%%\n",
              label, original_s, total_s,
              (total_s - original_s) / original_s * 100.0);
}

}  // namespace aide::bench
