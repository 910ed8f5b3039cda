// Resource monitoring and trigger detection (paper sections 3.4 and 5.1).
//
// The prototype "tracks the amount of free space in the Java heap with
// information obtained from the JVM's garbage collector". Partitioning is
// triggered when N successive GC cycles indicate that additional memory
// cannot be freed or that less than T% of memory is available. N and T are
// the thresholds the Figure 7 policy sweep varies, so TriggerPolicy holds
// them; what "cannot be freed" means is fixed (kNoProgressFraction,
// kNoProgressMinUsed).
//
// It is not a VM hook: the platform hands it the client's GC reports, and
// the trace-driven emulator feeds it recorded ones.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "vm/heap.hpp"

namespace aide::monitor {

struct TriggerPolicy {
  // Trigger when the post-GC free fraction drops below this value
  // (Figure 7 varies this from 0.02 to 0.50).
  double low_free_threshold = 0.05;
  // Number of successive low-memory GC reports required ("tolerance to
  // low-memory signals", varied from 1 to 3 in Figure 7).
  int consecutive_reports = 3;
};

// "Additional memory cannot be freed": a GC cycle that recovers less than
// kNoProgressFraction of capacity also counts as a low-memory report,
// provided more than kNoProgressMinUsed of the heap is occupied.
inline constexpr double kNoProgressFraction = 0.01;
inline constexpr double kNoProgressMinUsed = 0.90;

class ResourceMonitor {
 public:
  ResourceMonitor(NodeId watched_vm, TriggerPolicy policy)
      : watched_(watched_vm), policy_(policy) {}

  void on_gc(NodeId vm, const vm::GcReport& report) {
    if (vm != watched_ || suppressed_) return;
    last_report_ = report;
    ++reports_seen_;

    const double free_frac = report.free_fraction();
    const double freed_frac =
        report.capacity > 0
            ? static_cast<double>(report.freed) /
                  static_cast<double>(report.capacity)
            : 1.0;
    const bool low = free_frac < policy_.low_free_threshold;
    const bool no_progress = freed_frac < kNoProgressFraction &&
                             (1.0 - free_frac) > kNoProgressMinUsed;

    if (low || no_progress) {
      ++consecutive_low_;
      if (consecutive_low_ >= policy_.consecutive_reports) triggered_ = true;
    } else {
      consecutive_low_ = 0;
    }
  }

  // Feed a GC-style report directly (used by the trace-driven emulator).
  void feed(const vm::GcReport& report) { on_gc(watched_, report); }

  [[nodiscard]] bool triggered() const noexcept { return triggered_; }

  // Consumes a pending trigger; returns whether one was pending.
  bool consume_trigger() noexcept {
    const bool t = triggered_;
    triggered_ = false;
    consecutive_low_ = 0;
    return t;
  }

  // The peer this monitor would offload to is gone: stop raising triggers
  // until reset() (there is nowhere to offload, so a trigger could only
  // cause a doomed partitioning attempt on every GC).
  void note_peer_failure() noexcept {
    suppressed_ = true;
    triggered_ = false;
    consecutive_low_ = 0;
  }

  // The failed peer came back (re-admission): lift the suppression so
  // low-memory triggers can drive offloading again. The consecutive-report
  // counter restarts — pre-failure pressure history is stale by now.
  void note_peer_recovered() noexcept {
    suppressed_ = false;
    triggered_ = false;
    consecutive_low_ = 0;
  }

  [[nodiscard]] bool suppressed() const noexcept { return suppressed_; }

  void reset() noexcept {
    triggered_ = false;
    consecutive_low_ = 0;
    reports_seen_ = 0;
    suppressed_ = false;
  }

  [[nodiscard]] const TriggerPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const vm::GcReport& last_report() const noexcept {
    return last_report_;
  }
  [[nodiscard]] int consecutive_low() const noexcept {
    return consecutive_low_;
  }
  [[nodiscard]] std::uint64_t reports_seen() const noexcept {
    return reports_seen_;
  }

 private:
  NodeId watched_;
  TriggerPolicy policy_;
  vm::GcReport last_report_{};
  int consecutive_low_ = 0;
  bool triggered_ = false;
  bool suppressed_ = false;
  std::uint64_t reports_seen_ = 0;
};

}  // namespace aide::monitor
