// Shared plumbing for the three benchmark workloads.
//
// Every workload is closed loop and single threaded: set up (several times,
// keeping the last, so set-up time is a median), then issue one request after
// another until the measuring window ends. An untraced run reports the
// end-to-end metrics; a traced run alternates untraced and traced passes over
// the same inputs, checks that tracing changed nothing the program computes,
// and reports the per-layer metrics per traced pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rpc/endpoint.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Set-up repetitions; 0 = the workload's own default (a traced run sets up
  // once: it reports no set-up time).
  int setup_reps = 0;
  // Committed virtual-time references ("" = none) and the optional output
  // file for the raw span log of a traced run.
  std::string reference_path;
  std::string spans_out;
  // Print this run's reference line after set-up and exit (no timing).
  bool emit_reference = false;
};

// One printed metric. Only metrics with `json` set go into the last-line
// result object; the rest are printed for people.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool json = false;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;       // end-to-end (untraced run)
  std::map<std::string, double> layers;  // per-layer (traced run)
  std::vector<std::string> notes;    // free-form lines printed before results
  std::vector<SpanRecord> spans;     // raw span log of a traced run
  // Deterministic fingerprint of one pass: virtual nanoseconds and a digest
  // of checksums. Compared against the committed reference for the seed.
  std::int64_t virt_ns = 0;
  std::uint64_t digest = 0;
};

// The committed reference for (workload, seed), if the file has one.
struct Reference {
  bool found = false;
  std::int64_t virt_ns = 0;
  std::uint64_t digest = 0;
};
Reference load_reference(const std::string& path, const std::string& workload,
                         std::uint64_t seed);

Outcome run_paper_apps(const Options& opt);
Outcome run_pool_sessions(const Options& opt);
Outcome run_trace_replay(const Options& opt);

// --- helpers -------------------------------------------------------------

using WallClock = std::chrono::steady_clock;

inline double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

double median(std::vector<double> v);

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// A fixed-size uniform sample of request wall times (reservoir sampling), so
// memory and peak RSS do not grow with throughput. Exact while fewer than
// `capacity` requests were added.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 100000) : cap_(capacity) {
    samples_.reserve(capacity);
  }
  void add(double x);
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::size_t cap_;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

// The speed of a shared host, measured beside the requests. Other tenants
// slow the host's memory system down by tens of percent for seconds at a
// time, and the program and a fixed memory-bound kernel slow down together.
// Between requests, at most every 50 ms, the kernel (100 000 random
// read-modify-writes over 8 MiB) is timed. Each request belongs to the window
// between two probes, and its wall time can be rescaled to a host on which
// the kernel takes kReferenceProbeS, by the mean of the window's two probes.
// Of the estimators tried on one shared host (raw median, a 10th-percentile
// "quiet" pass, this probe plain, smoothed or square-rooted, a probe with an
// arithmetic half), this one spread least between runs.
class HostSpeed {
 public:
  static constexpr double kReferenceProbeS = 0.001;

  HostSpeed();
  // Records one request of pass position `kind`, then probes when due.
  void add(std::size_t kind, double wall_s);
  // Closes the last window. Returns each kind's wall times, rescaled to the
  // reference host when `normalize`, as measured otherwise.
  std::vector<std::vector<double>> by_kind(std::size_t kinds, bool normalize);
  [[nodiscard]] const std::vector<double>& probes() const noexcept {
    return probes_;
  }

 private:
  double probe();

  struct Request {
    std::size_t kind;
    std::size_t window;
    double wall_s;
  };
  std::vector<Request> requests_;
  std::vector<double> probes_;
  WallClock::time_point last_probe_;
  std::vector<std::uint32_t> buf_;
  std::uint64_t x_ = 1;
};

// Runs `setup` `reps` times (at least once), keeping whatever the last
// repetition built, and adds the median set-up time: `setup_s` (gated) at the
// reference host speed like requests_per_s, `setup_s_wall` as measured.
template <typename Fn>
void timed_setup(Outcome& out, int reps, Fn&& setup) {
  HostSpeed host;
  for (int i = 0; i < (reps < 1 ? 1 : reps); ++i) {
    const auto t0 = WallClock::now();
    setup();
    host.add(0, seconds_since(t0));
  }
  out.metrics.push_back({"setup_s", median(host.by_kind(1, true)[0]), "s", true});
  out.metrics.push_back({"setup_s_wall", median(host.by_kind(1, false)[0]), "s", false});
}

// Closed-loop request metrics shared by every workload, from a run whose
// passes each issue `requests_per_pass` requests of `kinds` kinds (one per
// app, emulation job, or one whole pool pass):
// - requests_per_s (gated in BENCHMARK.json): requests per pass over the
//   pass time at the reference host speed, the pass time being the sum of
//   each kind's median normalized wall time;
// - requests_per_s_wall: the same from wall times as measured;
// - the median / p90 / p99 request wall time as measured, with the sample
//   count (p90 keeps at least ten samples beyond it on every workload), and
//   the median probe time.
// Returns requests_per_s_wall for the workload's own alias.
double add_request_metrics(Outcome& out, const Reservoir& wall_us,
                           HostSpeed& host, std::size_t kinds,
                           double requests_per_pass);

// The traced run's totals per pass: the root spans' wall time and the sum of
// every layer's self time (equal by construction); the same sum with the
// span cost taken out, next to the untraced pass wall time it estimates; the
// traced / untraced wall-time ratio; and the raw span log.
void add_trace_totals(Outcome& out, const SpanRecorder& rec,
                      const SpanCost& cost, double passes, double traced_s,
                      double untraced_s);

// One line per layer: self wall time per pass with the span cost taken out.
std::string layer_breakdown(const SpanTotals& t, const SpanCost& cost,
                            double passes);

// The rpc.* counters from `EndpointStats` summed over `passes` passes:
// frames, ops, bytes and retries per pass, ops per frame, the share of ops
// written through, and read-ahead hits per object prefetched.
void add_rpc_counters(Outcome& out, const aide::rpc::EndpointStats& s,
                      double passes);

// EndpointStats is a flat array of uint64 counters (its documented layout
// contract, which the pool's aggregation relies on too); `a - b` field by
// field, for per-pass deltas.
aide::rpc::EndpointStats stats_minus(const aide::rpc::EndpointStats& a,
                                     const aide::rpc::EndpointStats& b);

}  // namespace perfbench
