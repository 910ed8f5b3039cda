#include "emul/emulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/log.hpp"

namespace aide::emul {

namespace {
constexpr NodeId kEmulatedClient{1};

// Rejects the values whose arithmetic is undefined further down: a negative
// or NaN fraction cast to an event index, a zero speedup divided into
// self-time, a zero heap divided into GC-pressure headroom. Every condition
// is false for NaN.
const EmulatorConfig& checked(const EmulatorConfig& c) {
  const auto require = [](bool ok, const char* field) {
    if (!ok) {
      throw std::invalid_argument(std::string("EmulatorConfig::") + field +
                                  " is out of range");
    }
  };
  require(c.eval_at_fraction >= 0.0, "eval_at_fraction");
  require(c.surrogate_speedup > 0.0, "surrogate_speedup");
  require(c.heap_capacity > 0, "heap_capacity");
  require(c.min_free_fraction >= 0.0 && c.min_free_fraction <= 1.0,
          "min_free_fraction");
  require(c.gc_pressure_cost_ns_per_live_byte >= 0.0,
          "gc_pressure_cost_ns_per_live_byte");
  return c;
}
}  // namespace

Emulator::Emulator(std::shared_ptr<const vm::ClassRegistry> registry,
                   EmulatorConfig config)
    : registry_(std::move(registry)), config_(checked(config)) {}

SimDuration Emulator::rpc_cost(std::uint64_t bytes) const {
  // Analytic probe: must never touch a live Link's stats or jitter stream.
  return netsim::estimate_rpc_cost(config_.link, bytes);
}

void Emulator::try_offload(SimTime at, EmulationResult& result) {
  const std::vector<NodeIndex> remap = monitor_->prune_dead_components();
  const graph::ExecGraph& g = monitor_->graph();
  if (!remap.empty()) {
    // Carry placement across the renumbering; pruned nodes drop out.
    std::vector<int> carried(g.node_count(), 0);
    for (std::size_t i = 0; i < placement_.size(); ++i) {
      if (remap[i] != graph::ExecGraph::npos) carried[remap[i]] = placement_[i];
    }
    placement_ = std::move(carried);
  }
  placement_.resize(g.node_count(), 0);

  partition::PartitionDecision decision;
  if (config_.manual_offload_classes.empty()) {
    partition::PartitionRequest req;
    req.objective = config_.objective;
    req.heap_capacity = config_.heap_capacity;
    req.min_free_bytes = static_cast<std::int64_t>(
        config_.min_free_fraction *
        static_cast<double>(config_.heap_capacity));
    req.client_speed = 1.0;
    req.surrogate_speedup = config_.surrogate_speedup;
    req.link = config_.link;
    req.history_duration = std::max<SimDuration>(at, 1);
    decision = partition::decide_partitioning(g, req);
    if (!decision.offload) {
      result.declined.push_back(std::move(decision));
      return;
    }
  } else {
    decision.offload = true;
    for (const std::string& name : config_.manual_offload_classes) {
      const ClassId cls = registry_->find(name);
      for (NodeIndex i = 0; i < g.node_count(); ++i) {
        if (g.key_of(i).cls != cls) continue;
        if (decision.selected.offload.insert(g.key_of(i)).second &&
            placement_[i] == 0) {
          decision.selected.offload_mem_bytes += g.node_at(i).mem_bytes;
        }
      }
    }
  }

  // Apply the new placement; charge migration for every component that
  // changes side (repeated repartitioning may also pull components back).
  std::uint64_t moved_bytes = 0;
  for (NodeIndex i = 0; i < g.node_count(); ++i) {
    const int want = decision.selected.offload.contains(g.key_of(i)) ? 1 : 0;
    if (want == placement_[i]) continue;
    moved_bytes += static_cast<std::uint64_t>(
        std::max<std::int64_t>(g.node_at(i).mem_bytes, 0));
    placement_[i] = want;
  }
  result.migration_time += rpc_cost(moved_bytes);

  OffloadSnapshot snap;
  snap.at = at;
  snap.migrated_bytes = moved_bytes;
  snap.components = decision.selected.offload.size();
  snap.decision = std::move(decision);
  result.offloads.push_back(std::move(snap));
}

EmulationResult Emulator::run(const Trace& trace) {
  monitor::MonitorConfig mon_cfg;
  mon_cfg.granularity.arrays_as_objects = config_.arrays_as_objects;
  mon_cfg.granularity.min_array_bytes = config_.min_array_bytes;
  mon_cfg.granularity.object_granularity_classes = {
      registry_->int_array_class()};
  monitor_ = std::make_unique<monitor::ExecutionMonitor>(registry_, mon_cfg);
  resource_ = std::make_unique<monitor::ResourceMonitor>(kEmulatedClient,
                                                         config_.trigger);
  placement_.clear();
  live_bytes_ = 0;
  freed_since_gc_ = 0;
  alloc_since_gc_ = 0;

  result_ = EmulationResult{};
  result_.base_time = trace.duration();
  compute_raw_ = 0;
  compute_scaled_ = 0;
  gc_cycle_ = 0;
  aux_ix_ = 0;
  // Any fraction of 1 or more never evaluates; the clamp keeps the cast
  // defined for huge and infinite ones.
  eval_index_ = static_cast<std::size_t>(
      static_cast<double>(trace.size()) *
      std::min(config_.eval_at_fraction, 1.0));
  past_horizon_ = config_.max_offloads == 0;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    replay_event(trace.events, i);
  }

  // Unattributed trace time (driver-level work, GC outside frames) stays on
  // the client; attributed self-time is re-scaled by placement.
  result_.emulated_time = result_.base_time - compute_raw_ + compute_scaled_ +
                          result_.comm_time + result_.migration_time +
                          result_.gc_pressure_time;
  return std::move(result_);
}

EventObjects Emulator::interaction_objects(const TraceEvents& events,
                                           std::size_t i) const {
  // Under class granularity no object id changes a component:
  // ExecutionMonitor::index_of reads the id only when arrays_as_objects is
  // set, and record_event then keys on the class pair alone. So the replay
  // reads the objects column for interactions and frame exits only under
  // the Array enhancement.
  return config_.arrays_as_objects ? events.objects()[i] : EventObjects{};
}

std::int64_t Emulator::resize_delta(const TraceEvents& events,
                                    std::size_t i) {
  // Events arrive in index order, so one forward cursor walks the sparse aux
  // list past the GC reports' entries. A resize without an entry has delta 0.
  const std::vector<AuxEntry>& aux = events.aux();
  while (aux_ix_ < aux.size() && aux[aux_ix_].index < i) ++aux_ix_;
  return aux_ix_ < aux.size() && aux[aux_ix_].index == i ? aux[aux_ix_].aux1
                                                          : 0;
}

// The hooks fed below read no event time: on_alloc, on_free,
// on_method_exit and record_event (behind on_invoke and on_access) ignore
// it, so they get 0 and the time column is read only where a decision reads
// it, at an evaluation.
void Emulator::replay_event(const TraceEvents& events, std::size_t i) {
  const HotEvent& e = events.hot()[i];
  switch (e.type) {
    case TraceEventType::alloc:
      monitor_->on_alloc(kEmulatedClient, events.objects()[i].a, e.cls_a,
                         e.bytes, 0);
      live_bytes_ += e.bytes;
      alloc_since_gc_ += e.bytes;
      break;

    case TraceEventType::free_obj:
      monitor_->on_free(kEmulatedClient, events.objects()[i].a, e.cls_a,
                        e.bytes, 0);
      live_bytes_ -= e.bytes;
      freed_since_gc_ += e.bytes;
      break;

    case TraceEventType::resize: {
      const std::int64_t delta = resize_delta(events, i);
      monitor_->on_resize(kEmulatedClient, events.objects()[i].a, e.cls_a,
                          delta);
      live_bytes_ += delta;
      break;
    }

    case TraceEventType::method_enter:
      break;

    case TraceEventType::method_exit: {
      const ObjectId obj = interaction_objects(events, i).a;
      if (!past_horizon_) {
        monitor_->on_method_exit(kEmulatedClient, e.cls_a, obj, e.method,
                                 e.bytes, 0);
      }
      const double speed = placement_of(e.cls_a, obj) != 0
                               ? config_.surrogate_speedup
                               : 1.0;
      compute_raw_ += e.bytes;
      compute_scaled_ +=
          static_cast<SimDuration>(static_cast<double>(e.bytes) / speed);
      break;
    }

    case TraceEventType::invoke: {
      const bool is_native = (e.flags & kFlagNative) != 0;
      const bool is_static = (e.flags & kFlagStatic) != 0;
      const bool is_stateless = (e.flags & kFlagStateless) != 0;
      const EventObjects objs = interaction_objects(events, i);

      const int from_p = placement_of(e.cls_a, objs.a);
      int to_p;
      if (is_native) {
        // Natives execute on the client — unless stateless and the
        // "Native" enhancement is on, in which case they run where invoked.
        to_p = (is_stateless && config_.stateless_natives_local) ? from_p
                                                                 : 0;
      } else if (is_static) {
        // Managed statics run on the invoking VM.
        to_p = from_p;
      } else {
        to_p = placement_of(e.cls_b, objs.b);
      }
      const bool remote = from_p != to_p;

      result_.total_invocations += 1;
      if (remote) {
        result_.remote_invocations += 1;
        if (is_native) result_.remote_native_invocations += 1;
        result_.remote_bytes += static_cast<std::uint64_t>(e.bytes);
        result_.comm_time += rpc_cost(static_cast<std::uint64_t>(e.bytes));
      }
      if (past_horizon_) break;

      vm::InvokeEvent ev;
      ev.vm = kEmulatedClient;
      ev.caller_cls = e.cls_a;
      ev.caller_obj = objs.a;
      ev.callee_cls = e.cls_b;
      ev.callee_obj = objs.b;
      ev.method = e.method;
      ev.is_native = is_native;
      ev.is_static = is_static;
      ev.is_stateless = is_stateless;
      ev.remote = remote;
      ev.bytes = static_cast<std::uint64_t>(e.bytes);
      monitor_->on_invoke(ev);
      break;
    }

    case TraceEventType::access: {
      const bool is_static = (e.flags & kFlagStatic) != 0;
      const EventObjects objs = interaction_objects(events, i);
      const int from_p = placement_of(e.cls_a, objs.a);
      // Static data lives on the client; object data follows placement.
      const int to_p = is_static ? 0 : placement_of(e.cls_b, objs.b);
      const bool remote = from_p != to_p;

      result_.total_accesses += 1;
      if (remote) {
        result_.remote_accesses += 1;
        result_.remote_bytes += static_cast<std::uint64_t>(e.bytes);
        result_.comm_time += rpc_cost(static_cast<std::uint64_t>(e.bytes));
      }
      if (past_horizon_) break;

      vm::AccessEvent ev;
      ev.vm = kEmulatedClient;
      ev.from_cls = e.cls_a;
      ev.from_obj = objs.a;
      ev.to_cls = e.cls_b;
      ev.to_obj = objs.b;
      ev.is_write = (e.flags & kFlagWrite) != 0;
      ev.is_static = is_static;
      ev.remote = remote;
      ev.bytes = static_cast<std::uint64_t>(e.bytes);
      monitor_->on_access(ev);
      break;
    }

    case TraceEventType::gc: {
      // Emulated client heap: total live bytes minus what has been
      // offloaded to the surrogate.
      std::int64_t offloaded = 0;
      for (NodeIndex n = 0; n < placement_.size(); ++n) {
        if (placement_[n] == 0) continue;
        offloaded += std::max<std::int64_t>(
            monitor_->graph().node_at(n).mem_bytes, 0);
      }
      const std::int64_t client_live =
          std::max<std::int64_t>(live_bytes_ - offloaded, 0);
      result_.peak_client_live =
          std::max(result_.peak_client_live, client_live);

      vm::GcReport rep;
      rep.cycle = ++gc_cycle_;
      rep.used_before = client_live + freed_since_gc_;
      rep.used_after = client_live;
      rep.capacity = config_.heap_capacity;
      rep.freed = freed_since_gc_;
      freed_since_gc_ = 0;

      // GC-pressure model: near exhaustion, every consumed byte of
      // headroom costs another collection cycle over the live set.
      if (config_.gc_pressure_cost_ns_per_live_byte > 0.0) {
        const double headroom = std::max<double>(
            static_cast<double>(config_.heap_capacity - client_live),
            static_cast<double>(config_.heap_capacity) / 64.0);
        const double cycles =
            static_cast<double>(alloc_since_gc_) / headroom;
        result_.gc_pressure_time += static_cast<SimDuration>(
            cycles * static_cast<double>(client_live) *
            config_.gc_pressure_cost_ns_per_live_byte);
      }
      alloc_since_gc_ = 0;
      if (past_horizon_) break;

      monitor_->on_gc(kEmulatedClient, rep);
      resource_->feed(rep);

      if (config_.trigger_mode == TriggerMode::memory_gc &&
          resource_->triggered()) {
        resource_->consume_trigger();
        try_offload(events.times()[i], result_);
        past_horizon_ = result_.offloads.size() >= config_.max_offloads;
      }
      break;
    }
  }

  if (config_.trigger_mode == TriggerMode::trace_fraction && !past_horizon_ &&
      i >= eval_index_) {
    try_offload(events.times()[i], result_);
    past_horizon_ = true;  // the mode's one evaluation has run
  }
}

}  // namespace aide::emul
