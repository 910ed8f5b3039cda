#include "probes.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

OffloadTrigger::OffloadTrigger(aide::platform::Platform& p, SpanRecorder& rec)
    : p_(p), rec_(rec) {
  p_.client().add_hooks(this);
  p_.client().set_low_memory_handler([this](aide::vm::Vm&) { return rescue(); });
}

OffloadTrigger::~OffloadTrigger() { p_.client().remove_hooks(this); }

void OffloadTrigger::on_gc(aide::NodeId vm, const aide::vm::GcReport&) {
  // Platform::on_gc's trigger path under the default policies (no
  // heartbeat, readmission, disconnect or recall armed).
  if (vm != p_.client().node() || busy_) return;
  if (p_.surrogate_dead() || p_.disconnected()) return;
  if (p_.offloads().size() >= p_.config().max_offloads) return;
  if (!p_.resource_monitor().triggered()) return;
  p_.resource_monitor().consume_trigger();
  timed_offload(std::nullopt);
}

bool OffloadTrigger::rescue() {
  // Platform::low_memory_rescue: the policy's constraint first, then any
  // partitioning that frees something.
  if (busy_) return false;
  auto report = timed_offload(std::nullopt);
  if (!report.has_value()) report = timed_offload(std::int64_t{1});
  return report.has_value();
}

std::optional<aide::platform::OffloadReport> OffloadTrigger::timed_offload(
    std::optional<std::int64_t> min_free_override) {
  busy_ = true;
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<aide::platform::OffloadReport> report;
  {
    Span s(&rec_, Layer::platform_offload);
    report = p_.offload_now(min_free_override);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  busy_ = false;
  tally_.evaluations += 1;
  tally_.offload_ns += static_cast<std::int64_t>(wall_s * 1e9);
  if (report.has_value()) {
    tally_.accepted += 1;
    tally_.decide_s += report->decision.compute_seconds;
    tally_.mincut_nodes_max =
        std::max(tally_.mincut_nodes_max, report->decision.mincut_nodes);
  } else {
    // A declined call is the policy evaluation and nothing else.
    tally_.decide_s += wall_s;
  }
  return report;
}

}  // namespace perfbench
