// Span arithmetic of the traced benchmark run, on synthetic timestamps.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "spans.hpp"

namespace perfbench {
namespace {

// A remote call whose peer execution calls back into the client: the shape
// of a surrogate method reaching a client native.
//
//   harness [0, 100]
//     vm    [5, 95]          client app
//       rpc [10, 60]         client -> surrogate invoke
//         vm  [15, 50]       surrogate frame
//           rpc [20, 30]     surrogate -> client callback
//             vm [22, 28]    client native frame
//       monitor [70, 72]
TEST(SpanRecorder, SelfTimeWithNestedPeerCallbacks) {
  SpanRecorder rec;
  const auto h = rec.open(Layer::harness, 0);
  const auto app = rec.open(Layer::vm, 5);
  const auto call = rec.open(Layer::rpc, 10);
  const auto peer = rec.open(Layer::vm, 15);
  const auto back = rec.open(Layer::rpc, 20);
  const auto native = rec.open(Layer::vm, 22);
  rec.close(native, 28);
  rec.close(back, 30);
  rec.close(peer, 50);
  rec.close(call, 60);
  const auto mon = rec.open(Layer::monitor, 70);
  rec.close(mon, 72);
  rec.close(app, 95);
  rec.close(h, 100);

  EXPECT_EQ(rec.totals().self(Layer::harness), 10);            // 100 - 90
  EXPECT_EQ(rec.totals().self(Layer::rpc), (50 - 35) + (10 - 6));  // 15 + 4
  // client app 90 - 50 - 2, surrogate frame 35 - 10, native 6
  EXPECT_EQ(rec.totals().self(Layer::vm), 38 + 25 + 6);
  EXPECT_EQ(rec.totals().self(Layer::monitor), 2);
  EXPECT_EQ(rec.totals().count(Layer::rpc), 2u);
  EXPECT_EQ(rec.totals().count(Layer::vm), 3u);
  EXPECT_EQ(rec.totals().root_ns, 100);
  EXPECT_EQ(rec.totals().self_sum_ns(), rec.totals().root_ns);
  EXPECT_TRUE(rec.empty());
}

TEST(SpanRecorder, SelfTimesSumToRootSpans) {
  std::mt19937_64 rng(7);
  SpanRecorder rec;
  std::int64_t now = 0;
  for (int root = 0; root < 200; ++root) {
    std::vector<SpanRecorder::Token> open;
    open.push_back(rec.open(Layer::harness, now));
    for (int step = 0; step < 400; ++step) {
      now += static_cast<std::int64_t>(rng() % 50);
      if (open.size() > 1 && rng() % 2 == 0) {
        rec.close(open.back(), now);
        open.pop_back();
      } else if (open.size() < 32) {
        const auto layer = static_cast<Layer>(rng() % kLayerCount);
        open.push_back(rec.open(layer, now));
      }
    }
    now += 3;
    rec.close(open.front(), now);  // closes every span still open above it
    EXPECT_TRUE(rec.empty());
  }
  EXPECT_GT(rec.totals().root_ns, 0);
  EXPECT_EQ(rec.totals().self_sum_ns(), rec.totals().root_ns);
}

TEST(SpanRecorder, ClosingAnOuterSpanUnwindsSkippedChildren) {
  SpanRecorder rec(16);
  const auto outer = rec.open(Layer::rpc, 0);
  const auto inner = rec.open(Layer::vm, 4);  // its exit never arrives
  rec.close(outer, 10);
  EXPECT_FALSE(rec.is_open(inner));
  rec.close(inner, 50);  // stale token: no effect
  EXPECT_EQ(rec.totals().self(Layer::vm), 6);
  EXPECT_EQ(rec.totals().self(Layer::rpc), 4);
  EXPECT_EQ(rec.totals().root_ns, 10);

  // A new span at the same depth gets a fresh id; the stale token stays dead.
  const auto again = rec.open(Layer::rpc, 20);
  rec.close(inner, 21);
  EXPECT_TRUE(rec.is_open(again));
  rec.close(again, 25);

  ASSERT_EQ(rec.log().size(), 3u);
  EXPECT_EQ(rec.log()[0].layer, Layer::vm);
  EXPECT_EQ(rec.log()[0].parent, rec.log()[1].id);
  EXPECT_EQ(rec.log()[1].parent, 0u);
}

TEST(SpanRecorder, LogStopsAtCapacityButTotalsDoNot) {
  SpanRecorder rec(2);
  for (int i = 0; i < 5; ++i) rec.close(rec.open(Layer::monitor, i * 10), i * 10 + 3);
  EXPECT_EQ(rec.log().size(), 2u);
  EXPECT_EQ(rec.totals().count(Layer::monitor), 5u);
  EXPECT_EQ(rec.totals().self(Layer::monitor), 15);
}

TEST(SpanTotals, SnapshotsAttributeAStretchOfTheRun) {
  SpanRecorder rec;
  rec.close(rec.open(Layer::vm, 0), 10);
  const SpanTotals before = rec.totals();
  const auto outer = rec.open(Layer::harness, 20);
  rec.close(rec.open(Layer::rpc, 22), 27);
  rec.close(outer, 30);
  SpanTotals delta = rec.totals();
  delta -= before;
  EXPECT_EQ(delta.self(Layer::vm), 0);
  EXPECT_EQ(delta.self(Layer::rpc), 5);
  EXPECT_EQ(delta.self(Layer::harness), 5);
  EXPECT_EQ(delta.root_ns, 10);
  EXPECT_EQ(delta.self_sum_ns(), delta.root_ns);
  delta += before;
  EXPECT_EQ(delta.self_sum_ns(), rec.totals().self_sum_ns());
}

TEST(SpanRecorder, CorrectedSelfTakesSpanCostFromOwnerAndParent) {
  SpanRecorder rec;
  const auto outer = rec.open(Layer::vm, 0);
  for (int i = 0; i < 4; ++i) {
    rec.close(rec.open(Layer::monitor, 10 * i + 1), 10 * i + 6);
  }
  rec.close(outer, 100);
  EXPECT_EQ(rec.totals().children[static_cast<std::size_t>(Layer::vm)], 4u);
  EXPECT_EQ(rec.totals().children[static_cast<std::size_t>(Layer::monitor)], 0u);
  const SpanCost cost{2.0, 3.0};
  EXPECT_DOUBLE_EQ(rec.totals().corrected_self_ns(Layer::monitor, cost), 20.0 - 4 * 2.0);
  EXPECT_DOUBLE_EQ(rec.totals().corrected_self_ns(Layer::vm, cost), 80.0 - 2.0 - 4 * 3.0);
}

TEST(SpanCost, CalibrationIsPositive) {
  const SpanCost c = calibrate_span_cost();
  EXPECT_GT(c.self_ns + c.parent_ns, 0.0);
  EXPECT_LT(c.self_ns + c.parent_ns, 10000.0);
}

TEST(Percentile, NearestRankAndSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(v, 50.0), 500.0);
  EXPECT_EQ(percentile(v, 90.0), 900.0);
  EXPECT_EQ(percentile(v, 99.0), 990.0);
  // With 1000 samples p99 keeps ten samples beyond it, p90 a hundred.
  const auto beyond = [&](double p) {
    int n = 0;
    for (const double x : v) n += x > p ? 1 : 0;
    return n;
  };
  EXPECT_EQ(beyond(percentile(v, 99.0)), 10);
  EXPECT_EQ(beyond(percentile(v, 90.0)), 100);

  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({42.0}, 99.0), 42.0);
  EXPECT_EQ(percentile({1.0, 2.0}, 50.0), 1.0);
  EXPECT_EQ(percentile({1.0, 2.0}, 51.0), 2.0);
}

}  // namespace
}  // namespace perfbench
