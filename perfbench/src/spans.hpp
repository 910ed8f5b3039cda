// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer, timed from outside through a public seam:
// (layer, start, end, parent). Spans nest strictly — the benchmark is single
// threaded and every seam is a synchronous call — so a layer's self time is
// its span's duration minus the part its direct children cover, and the self
// times of every layer sum to the total duration of the root spans.
//
// Self times are folded into per-layer totals as each span closes, so a run
// with millions of monitor events needs no per-span storage. The first
// `log_capacity` closed spans are also kept verbatim and can be written out
// at the end of the run for inspection.
//
// Recording a span costs wall time too, and a monitor event is short enough
// for that cost to matter. calibrate_span_cost() measures it on the running
// machine; corrected_self_ns() takes it back out of each layer: a span's own
// share from the layer's spans, the share that lands before the span opens
// and after it closes from the layer that was open around it.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

// The layers a span can be charged to. `harness` is the benchmark's own
// request loop (the root of every paper_apps request).
enum class Layer : std::uint8_t {
  harness,
  platform_ctor,
  platform_offload,
  platform_dispatch,
  vm,
  monitor,
  rpc,
  emul,
  count_,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::count_);

std::string_view layer_name(Layer l) noexcept;

// One closed span, as kept in the log. Times are nanoseconds since the
// recorder was constructed; `parent` is the id of the enclosing span, 0 for a
// root span (span ids start at 1).
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  Layer layer = Layer::harness;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Wall time the recorder adds per span: `self_ns` lands in the span's own
// self time, `parent_ns` in the self time of the span around it.
struct SpanCost {
  double self_ns = 0.0;
  double parent_ns = 0.0;
};

// Per-layer sums over closed spans. Snapshots subtract, so a caller can
// attribute a stretch of the run (one app, one pass) to itself.
struct SpanTotals {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> spans{};
  // Spans opened directly inside a span of the layer.
  std::array<std::uint64_t, kLayerCount> children{};
  // Summed duration of the root spans.
  std::int64_t root_ns = 0;

  [[nodiscard]] std::int64_t self(Layer l) const noexcept {
    return self_ns[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t count(Layer l) const noexcept {
    return spans[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] double corrected_self_ns(Layer l, const SpanCost& c) const noexcept {
    const auto ix = static_cast<std::size_t>(l);
    return static_cast<double>(self_ns[ix]) -
           c.self_ns * static_cast<double>(spans[ix]) -
           c.parent_ns * static_cast<double>(children[ix]);
  }
  [[nodiscard]] std::int64_t self_sum_ns() const noexcept;
  SpanTotals& operator+=(const SpanTotals& o) noexcept;
  SpanTotals& operator-=(const SpanTotals& o) noexcept;
};

class SpanRecorder {
 public:
  // Identifies one open span; closing a token whose span was already closed
  // (by an enclosing span unwinding past it) is a no-op.
  struct Token {
    std::uint32_t depth = 0;
    std::uint32_t id = 0;
  };

  explicit SpanRecorder(std::size_t log_capacity = 0);

  // Opens a span at the current steady-clock time, or at `now_ns` (tests).
  Token open(Layer layer) { return open(layer, now()); }
  Token open(Layer layer, std::int64_t now_ns);
  // Closes the span and every span still open above it, innermost first, so
  // an exception that skipped a child's close cannot corrupt the stack.
  void close(Token t) { close(t, now()); }
  void close(Token t, std::int64_t now_ns);

  [[nodiscard]] bool empty() const noexcept { return stack_.empty(); }
  [[nodiscard]] Layer top() const noexcept { return stack_.back().layer; }
  [[nodiscard]] bool is_open(Token t) const noexcept {
    return t.depth < stack_.size() && stack_[t.depth].id == t.id;
  }

  [[nodiscard]] const SpanTotals& totals() const noexcept { return totals_; }
  [[nodiscard]] const std::vector<SpanRecord>& log() const noexcept {
    return log_;
  }

  [[nodiscard]] std::int64_t now() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  struct Open {
    Layer layer;
    std::uint32_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  void pop(std::int64_t now_ns);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Open> stack_;
  SpanTotals totals_;
  std::uint32_t next_id_ = 1;
  std::size_t log_capacity_;
  std::vector<SpanRecord> log_;
};

// RAII span: closes on scope exit, exceptions included. A null recorder
// records nothing, so an untraced run shares the traced code path.
class Span {
 public:
  Span(SpanRecorder* rec, Layer layer)
      : rec_(rec), token_(rec != nullptr ? rec->open(layer) : SpanRecorder::Token{}) {}
  ~Span() {
    if (rec_ != nullptr) rec_->close(token_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
  SpanRecorder::Token token_;
};

// Times empty spans nested in a parent span, several times over, and returns
// the median cost per span.
SpanCost calibrate_span_cost();

// Nearest-rank percentile over unsorted samples (sorts a copy); 0 when empty.
double percentile(std::vector<double> samples, double pct);

}  // namespace perfbench
