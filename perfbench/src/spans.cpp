#include "spans.hpp"

#include <algorithm>

namespace perfbench {

std::string_view layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::harness: return "harness";
    case Layer::platform_ctor: return "platform.ctor";
    case Layer::platform_offload: return "platform.offload";
    case Layer::platform_dispatch: return "platform.dispatch";
    case Layer::vm: return "vm";
    case Layer::monitor: return "monitor";
    case Layer::rpc: return "rpc";
    case Layer::emul: return "emul";
    case Layer::count_: break;
  }
  return "?";
}

std::int64_t SpanTotals::self_sum_ns() const noexcept {
  std::int64_t sum = 0;
  for (const std::int64_t v : self_ns) sum += v;
  return sum;
}

SpanTotals& SpanTotals::operator+=(const SpanTotals& o) noexcept {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self_ns[i] += o.self_ns[i];
    spans[i] += o.spans[i];
    children[i] += o.children[i];
  }
  root_ns += o.root_ns;
  return *this;
}

SpanTotals& SpanTotals::operator-=(const SpanTotals& o) noexcept {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self_ns[i] -= o.self_ns[i];
    spans[i] -= o.spans[i];
    children[i] -= o.children[i];
  }
  root_ns -= o.root_ns;
  return *this;
}

SpanRecorder::SpanRecorder(std::size_t log_capacity)
    : epoch_(std::chrono::steady_clock::now()), log_capacity_(log_capacity) {
  stack_.reserve(64);
  log_.reserve(log_capacity);
}

SpanRecorder::Token SpanRecorder::open(Layer layer, std::int64_t now_ns) {
  if (!stack_.empty()) {
    totals_.children[static_cast<std::size_t>(stack_.back().layer)] += 1;
  }
  const Token t{static_cast<std::uint32_t>(stack_.size()), next_id_++};
  stack_.push_back(Open{layer, t.id, now_ns, 0});
  return t;
}

void SpanRecorder::close(Token t, std::int64_t now_ns) {
  if (!is_open(t)) return;
  while (stack_.size() > t.depth) pop(now_ns);
}

void SpanRecorder::pop(std::int64_t now_ns) {
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now_ns - o.start_ns;
  const auto ix = static_cast<std::size_t>(o.layer);
  totals_.self_ns[ix] += dur - o.child_ns;
  totals_.spans[ix] += 1;
  if (stack_.empty()) {
    totals_.root_ns += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (log_.size() < log_capacity_) {
    log_.push_back(SpanRecord{o.id, stack_.empty() ? 0 : stack_.back().id,
                              o.layer, o.start_ns, now_ns});
  }
}

SpanCost calibrate_span_cost() {
  constexpr int kReps = 7;
  constexpr int kSpans = 100000;
  std::vector<double> self, parent;
  for (int rep = 0; rep < kReps; ++rep) {
    SpanRecorder r;
    {
      Span outer(&r, Layer::harness);
      for (int i = 0; i < kSpans; ++i) Span inner(&r, Layer::monitor);
    }
    self.push_back(static_cast<double>(r.totals().self(Layer::monitor)) / kSpans);
    parent.push_back(static_cast<double>(r.totals().self(Layer::harness)) / kSpans);
  }
  std::sort(self.begin(), self.end());
  std::sort(parent.begin(), parent.end());
  return SpanCost{self[kReps / 2], parent[kReps / 2]};
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size());
  auto ix = static_cast<std::size_t>(rank);
  if (static_cast<double>(ix) < rank) ix += 1;  // ceil
  if (ix == 0) ix = 1;
  return samples[std::min(ix, samples.size()) - 1];
}

}  // namespace perfbench
