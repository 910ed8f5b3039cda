// Tests for the resource monitor's trigger detection (paper 5.1: "
// partitioning is triggered when three successive garbage collection cycles
// indicate that additional memory cannot be freed or that less than 5% of
// memory is available").
#include <gtest/gtest.h>

#include "monitor/resource_monitor.hpp"

namespace aide::monitor {
namespace {

vm::GcReport report(std::int64_t capacity, std::int64_t used,
                    std::int64_t freed) {
  vm::GcReport r;
  r.capacity = capacity;
  r.used_after = used;
  r.used_before = used + freed;
  r.freed = freed;
  return r;
}

constexpr std::int64_t kCap = 1000;

TEST(ResourceMonitorTest, NoTriggerWhenMemoryAmple) {
  ResourceMonitor rm(NodeId{1}, TriggerPolicy{});
  for (int i = 0; i < 10; ++i) {
    rm.feed(report(kCap, 500, 100));
  }
  EXPECT_FALSE(rm.triggered());
}

TEST(ResourceMonitorTest, TriggersAfterConsecutiveLowReports) {
  TriggerPolicy p;
  p.low_free_threshold = 0.05;
  p.consecutive_reports = 3;
  ResourceMonitor rm(NodeId{1}, p);

  rm.feed(report(kCap, 970, 5));
  EXPECT_FALSE(rm.triggered());
  rm.feed(report(kCap, 980, 5));
  EXPECT_FALSE(rm.triggered());
  rm.feed(report(kCap, 990, 5));
  EXPECT_TRUE(rm.triggered());
}

TEST(ResourceMonitorTest, HighFreeReportResetsStreak) {
  TriggerPolicy p;
  p.low_free_threshold = 0.05;
  p.consecutive_reports = 3;
  ResourceMonitor rm(NodeId{1}, p);

  rm.feed(report(kCap, 970, 5));
  rm.feed(report(kCap, 980, 5));
  rm.feed(report(kCap, 300, 600));  // plenty freed
  rm.feed(report(kCap, 970, 5));
  rm.feed(report(kCap, 980, 5));
  EXPECT_FALSE(rm.triggered());
  rm.feed(report(kCap, 990, 5));
  EXPECT_TRUE(rm.triggered());
}

TEST(ResourceMonitorTest, NoProgressCountsAsLowWhenNearlyFull) {
  TriggerPolicy p;
  p.low_free_threshold = 0.05;
  p.consecutive_reports = 2;
  ResourceMonitor rm(NodeId{1}, p);

  // 92% used, GC frees almost nothing: "additional memory cannot be freed".
  rm.feed(report(kCap, 920, 2));
  rm.feed(report(kCap, 925, 2));
  EXPECT_TRUE(rm.triggered());
}

TEST(ResourceMonitorTest, NoProgressIgnoredWhenHeapMostlyEmpty) {
  TriggerPolicy p;
  p.consecutive_reports = 1;
  ResourceMonitor rm(NodeId{1}, p);
  rm.feed(report(kCap, 100, 0));  // nothing freed, but nothing needed
  EXPECT_FALSE(rm.triggered());
}

TEST(ResourceMonitorTest, ToleranceOfOneTriggersImmediately) {
  TriggerPolicy p;
  p.low_free_threshold = 0.50;
  p.consecutive_reports = 1;
  ResourceMonitor rm(NodeId{1}, p);
  rm.feed(report(kCap, 600, 10));
  EXPECT_TRUE(rm.triggered());
}

TEST(ResourceMonitorTest, ConsumeTriggerLatches) {
  TriggerPolicy p;
  p.consecutive_reports = 1;
  p.low_free_threshold = 0.5;
  ResourceMonitor rm(NodeId{1}, p);
  rm.feed(report(kCap, 900, 1));
  EXPECT_TRUE(rm.consume_trigger());
  EXPECT_FALSE(rm.triggered());
  EXPECT_FALSE(rm.consume_trigger());
}

TEST(ResourceMonitorTest, IgnoresOtherVms) {
  TriggerPolicy p;
  p.consecutive_reports = 1;
  p.low_free_threshold = 0.5;
  ResourceMonitor rm(NodeId{1}, p);
  rm.on_gc(NodeId{2}, report(kCap, 999, 0));
  EXPECT_FALSE(rm.triggered());
  EXPECT_EQ(rm.reports_seen(), 0u);
}

TEST(ResourceMonitorTest, ResetClearsState) {
  TriggerPolicy p;
  p.consecutive_reports = 2;
  p.low_free_threshold = 0.5;
  ResourceMonitor rm(NodeId{1}, p);
  rm.feed(report(kCap, 900, 1));
  rm.reset();
  rm.feed(report(kCap, 900, 1));
  EXPECT_FALSE(rm.triggered());
  EXPECT_EQ(rm.consecutive_low(), 1);
}

TEST(ResourceMonitorTest, PeerFailureSuppressesTriggers) {
  TriggerPolicy p;
  p.consecutive_reports = 1;
  p.low_free_threshold = 0.5;
  ResourceMonitor rm(NodeId{1}, p);
  rm.feed(report(kCap, 900, 1));
  ASSERT_TRUE(rm.triggered());

  // The surrogate is gone: the pending trigger is cancelled and no amount
  // of memory pressure may raise another.
  rm.note_peer_failure();
  EXPECT_TRUE(rm.suppressed());
  EXPECT_FALSE(rm.triggered());
  for (int i = 0; i < 5; ++i) rm.feed(report(kCap, 990, 0));
  EXPECT_FALSE(rm.triggered());
  EXPECT_EQ(rm.consecutive_low(), 0);

  // reset() (a fresh platform pairing) lifts the suppression.
  rm.reset();
  EXPECT_FALSE(rm.suppressed());
  rm.feed(report(kCap, 900, 1));
  EXPECT_TRUE(rm.triggered());
}

TEST(ResourceMonitorTest, LastReportExposed) {
  ResourceMonitor rm(NodeId{1}, TriggerPolicy{});
  rm.feed(report(kCap, 321, 7));
  EXPECT_EQ(rm.last_report().used_after, 321);
  EXPECT_EQ(rm.last_report().freed, 7);
  EXPECT_EQ(rm.reports_seen(), 1u);
}

// Parameterized sweep over thresholds: the trigger must fire exactly when
// the free fraction is below the threshold for `consecutive` reports.
class TriggerSweepTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(TriggerSweepTest, FiresAtConfiguredPoint) {
  const auto [threshold, consecutive] = GetParam();
  TriggerPolicy p;
  p.low_free_threshold = threshold;
  p.consecutive_reports = consecutive;
  ResourceMonitor rm(NodeId{1}, p);

  const auto used = static_cast<std::int64_t>(
      static_cast<double>(kCap) * (1.0 - threshold / 2));
  for (int i = 0; i < consecutive - 1; ++i) {
    rm.feed(report(kCap, used, 50));
    EXPECT_FALSE(rm.triggered());
  }
  rm.feed(report(kCap, used, 50));
  EXPECT_TRUE(rm.triggered());
}

INSTANTIATE_TEST_SUITE_P(
    PolicyGrid, TriggerSweepTest,
    ::testing::Combine(::testing::Values(0.02, 0.05, 0.10, 0.25, 0.50),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace aide::monitor
