#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/rng.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

Reference load_reference(const std::string& path, const std::string& workload,
                         std::uint64_t seed) {
  Reference ref;
  if (path.empty()) return ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string name, digest_hex;
    std::uint64_t row_seed = 0;
    std::int64_t virt = 0;
    if (!(row >> name >> row_seed >> virt >> digest_hex)) continue;
    if (name == workload && row_seed == seed) {
      ref.found = true;
      ref.virt_ns = virt;
      ref.digest = std::stoull(digest_hex, nullptr, 16);
    }
  }
  return ref;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Reservoir::add(double x) {
  seen_ += 1;
  if (samples_.size() < cap_) {
    samples_.push_back(x);
    return;
  }
  const std::uint64_t j = aide::splitmix64(state_) % seen_;
  if (j < cap_) samples_[j] = x;
}

HostSpeed::HostSpeed() : buf_(std::size_t{1} << 21, 0) {
  probes_.push_back(probe());
}

double HostSpeed::probe() {
  const auto t0 = WallClock::now();
  constexpr std::size_t kMask = (std::size_t{1} << 21) - 1;
  for (int i = 0; i < 100000; ++i) {
    x_ = x_ * 6364136223846793005ULL + 1442695040888963407ULL;
    buf_[(x_ >> 33) & kMask] += static_cast<std::uint32_t>(x_);
  }
  last_probe_ = WallClock::now();
  return std::chrono::duration<double>(last_probe_ - t0).count();
}

void HostSpeed::add(std::size_t kind, double wall_s) {
  requests_.push_back(Request{kind, probes_.size() - 1, wall_s});
  if (seconds_since(last_probe_) >= 0.05) probes_.push_back(probe());
}

std::vector<std::vector<double>> HostSpeed::by_kind(std::size_t kinds,
                                                    bool normalize) {
  if (requests_.empty() || requests_.back().window + 1 == probes_.size()) {
    probes_.push_back(probe());
  }
  std::vector<std::vector<double>> out(kinds);
  for (const Request& r : requests_) {
    const double host_s = 0.5 * (probes_[r.window] + probes_[r.window + 1]);
    out[r.kind].push_back(normalize ? r.wall_s * kReferenceProbeS / host_s
                                    : r.wall_s);
  }
  return out;
}

namespace {

double median_pass_s(const std::vector<std::vector<double>>& wall_s_by_kind) {
  double sum = 0.0;
  for (const std::vector<double>& kind : wall_s_by_kind) sum += median(kind);
  return sum;
}

}  // namespace

double add_request_metrics(Outcome& out, const Reservoir& wall_us,
                           HostSpeed& host, std::size_t kinds,
                           double requests_per_pass) {
  const std::vector<double>& v = wall_us.samples();
  const double wall_rate =
      requests_per_pass / median_pass_s(host.by_kind(kinds, false));
  out.metrics.push_back(
      {"requests_per_s",
       requests_per_pass / median_pass_s(host.by_kind(kinds, true)), "1/s",
       true});
  out.metrics.push_back({"requests_per_s_wall", wall_rate, "1/s", false});
  out.metrics.push_back({"request_wall_us_p50", percentile(v, 50.0), "us", false});
  out.metrics.push_back({"request_wall_us_p90", percentile(v, 90.0), "us", false});
  out.metrics.push_back({"request_wall_us_p99", percentile(v, 99.0), "us", false});
  out.metrics.push_back(
      {"request_samples", static_cast<double>(wall_us.seen()), "count", false});
  out.metrics.push_back(
      {"host_probe_ms_p50", median(host.probes()) * 1e3, "ms", false});
  return wall_rate;
}

void add_trace_totals(Outcome& out, const SpanRecorder& rec,
                      const SpanCost& cost, double passes, double traced_s,
                      double untraced_s) {
  const SpanTotals& t = rec.totals();
  double corrected_ns = 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    corrected_ns += t.corrected_self_ns(static_cast<Layer>(l), cost);
  }
  auto& L = out.layers;
  L["trace.root_wall_ms"] = static_cast<double>(t.root_ns) / 1e6 / passes;
  L["trace.self_sum_wall_ms"] =
      static_cast<double>(t.self_sum_ns()) / 1e6 / passes;
  L["trace.corrected_sum_wall_ms"] = corrected_ns / 1e6 / passes;
  L["trace.untraced_pass_wall_ms"] = untraced_s * 1e3 / passes;
  L["trace.span_cost_ns"] = cost.self_ns + cost.parent_ns;
  L["trace.overhead_ratio"] = ratio(traced_s, untraced_s);
  L["trace.passes"] = passes;
  out.spans = rec.log();
  out.notes.push_back("self wall ms per pass, span cost removed:" +
                      layer_breakdown(t, cost, passes));
}

std::string layer_breakdown(const SpanTotals& t, const SpanCost& cost,
                            double passes) {
  std::string line;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (t.count(layer) == 0) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s %.2f",
                  std::string(layer_name(layer)).c_str(),
                  t.corrected_self_ns(layer, cost) / 1e6 / passes);
    line += buf;
  }
  return line;
}

void add_rpc_counters(Outcome& out, const aide::rpc::EndpointStats& s,
                      double passes) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  auto& L = out.layers;
  L["rpc.frames"] = d(s.rpcs_sent) / passes;
  L["rpc.ops"] = d(s.ops_sent) / passes;
  L["rpc.bytes"] = d(s.bytes_sent) / passes;
  L["rpc.retries"] = d(s.retries) / passes;
  L["rpc.ops_per_frame"] = ratio(d(s.ops_sent), d(s.rpcs_sent));
  L["rpc.writethrough_share"] = ratio(d(s.unproven_stores_flushed), d(s.ops_sent));
  L["rpc.readahead_hit_ratio"] = ratio(d(s.readahead_hits), d(s.objects_prefetched));
}

aide::rpc::EndpointStats stats_minus(const aide::rpc::EndpointStats& a,
                                     const aide::rpc::EndpointStats& b) {
  using Stats = aide::rpc::EndpointStats;
  static_assert(std::is_trivially_copyable_v<Stats> &&
                sizeof(Stats) % sizeof(std::uint64_t) == 0);
  constexpr std::size_t kFields = sizeof(Stats) / sizeof(std::uint64_t);
  std::array<std::uint64_t, kFields> x{}, y{};
  std::memcpy(x.data(), static_cast<const void*>(&a), sizeof(Stats));
  std::memcpy(y.data(), static_cast<const void*>(&b), sizeof(Stats));
  for (std::size_t i = 0; i < kFields; ++i) x[i] -= y[i];
  Stats d;
  std::memcpy(static_cast<void*>(&d), x.data(), sizeof(Stats));
  return d;
}

}  // namespace perfbench
