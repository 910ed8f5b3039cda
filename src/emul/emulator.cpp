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
  // A class-granularity node's side goes to its class's byte too; the
  // declined path above changes no side.
  std::uint64_t moved_bytes = 0;
  std::fill(class_side_.begin(), class_side_.end(), 0);
  for (NodeIndex i = 0; i < g.node_count(); ++i) {
    const graph::ComponentKey& key = g.key_of(i);
    const int want = decision.selected.offload.contains(key) ? 1 : 0;
    if (!key.is_object_granularity()) {
      class_side_[key.cls.value()] = static_cast<std::uint8_t>(want);
    }
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
  class_side_.assign(registry_->size(), 0);
  result_ = EmulationResult{};
  result_.base_time = trace.duration();
  if (config_.arrays_as_objects) {
    replay<true>(trace.events);
  } else {
    replay<false>(trace.events);
  }
  return std::move(result_);
}

// One replay's accumulators and heap model, local to replay() and written
// into result_ once, when the trace ends: no call can reach them, so the
// per-event body need not store and reload them around the monitor's calls.
struct Emulator::Replay {
  SimDuration compute_raw = 0;     // self-time as recorded (client speed)
  SimDuration compute_scaled = 0;  // self-time under the emulated placement
  SimDuration comm_time = 0;
  SimDuration gc_pressure_time = 0;
  std::uint64_t total_invocations = 0;
  std::uint64_t remote_invocations = 0;
  std::uint64_t remote_native_invocations = 0;
  std::uint64_t total_accesses = 0;
  std::uint64_t remote_accesses = 0;
  std::uint64_t remote_bytes = 0;
  std::int64_t peak_client_live = 0;

  // Emulated heap model.
  std::int64_t live_bytes = 0;
  std::int64_t freed_since_gc = 0;
  std::int64_t alloc_since_gc = 0;
  std::uint32_t gc_cycle = 0;
  // First entry of the trace's aux list not yet behind the replay.
  std::size_t aux_ix = 0;
};

template <bool kObjects>
void Emulator::replay(const TraceEvents& events) {
  Replay r;
  const std::size_t n = events.size();
  std::size_t i = 0;

  // Short of the horizon. memory_gc runs until a GC report's offload
  // reaches it. trace_fraction evaluates once, right after the event at
  // eval_index; any fraction of 1 or more never evaluates, and the clamp
  // keeps the cast defined for huge and infinite ones.
  if (config_.max_offloads != 0) {
    const bool by_fraction =
        config_.trigger_mode == TriggerMode::trace_fraction;
    const auto eval_index = static_cast<std::size_t>(
        static_cast<double>(n) * std::min(config_.eval_at_fraction, 1.0));
    const std::size_t end = by_fraction ? std::min(eval_index + 1, n) : n;
    while (i < end) {
      if (replay_event<true, kObjects>(events, i++, r)) break;
    }
    if (by_fraction && eval_index < n) {
      try_offload(events.times()[eval_index], result_);
    }
  }

  // Past the horizon. Under class granularity each whole block left is
  // charged from its summary, its memory events replayed in order after it.
  if constexpr (!kObjects) {
    const std::size_t first_block = (i + kBlockEvents - 1) / kBlockEvents;
    if (first_block < events.blocks()) {
      for (; i < first_block * kBlockEvents; ++i) {
        replay_event<false, false>(events, i, r);
      }
      const std::vector<std::size_t>& memory = events.memory_events();
      auto m = std::lower_bound(memory.begin(), memory.end(), i);
      for (std::size_t b = first_block; b < events.blocks(); ++b) {
        for (const SummaryEntry& s : events.summary(b)) {
          charge<false>(s.key, {}, s.count, r);
        }
        const std::size_t block_end = (b + 1) * kBlockEvents;
        for (; m != memory.end() && *m < block_end; ++m) {
          replay_event<false, false>(events, *m, r);
        }
      }
      i = events.blocks() * kBlockEvents;
    }
  }
  for (; i < n; ++i) replay_event<false, kObjects>(events, i, r);

  result_.comm_time = r.comm_time;
  result_.gc_pressure_time = r.gc_pressure_time;
  result_.total_invocations = r.total_invocations;
  result_.remote_invocations = r.remote_invocations;
  result_.remote_native_invocations = r.remote_native_invocations;
  result_.total_accesses = r.total_accesses;
  result_.remote_accesses = r.remote_accesses;
  result_.remote_bytes = r.remote_bytes;
  result_.peak_client_live = r.peak_client_live;
  // Unattributed trace time (driver-level work, GC outside frames) stays on
  // the client; attributed self-time is re-scaled by placement.
  result_.emulated_time = result_.base_time - r.compute_raw +
                          r.compute_scaled + result_.comm_time +
                          result_.migration_time + result_.gc_pressure_time;
}

template <bool kObjects>
int Emulator::side_of(ClassId cls, ObjectId obj) const {
  if constexpr (kObjects) {
    const NodeIndex i = monitor_->index_of(cls, obj);
    return i < placement_.size() ? placement_[i] : 0;
  } else {
    // A class id past the registry has no node and reads the client.
    return cls.value() < class_side_.size() ? class_side_[cls.value()] : 0;
  }
}

// The routing and charging rules of frame exits, invocations and accesses.
// Every term is an integer that depends only on e's summary key and the
// class placement, so `count` equal events cost count times one.
template <bool kObjects>
bool Emulator::charge(const HotEvent& e, EventObjects objs,
                      std::uint64_t count, Replay& r) const {
  const auto times = static_cast<std::int64_t>(count);
  switch (e.type) {
    case TraceEventType::method_exit: {
      const double speed = side_of<kObjects>(e.cls_a, objs.a) != 0
                               ? config_.surrogate_speedup
                               : 1.0;
      r.compute_raw += times * e.bytes;
      r.compute_scaled +=
          times *
          static_cast<SimDuration>(static_cast<double>(e.bytes) / speed);
      return false;
    }

    case TraceEventType::invoke: {
      const bool is_native = (e.flags & kFlagNative) != 0;
      const bool is_static = (e.flags & kFlagStatic) != 0;
      const bool is_stateless = (e.flags & kFlagStateless) != 0;
      const int from_p = side_of<kObjects>(e.cls_a, objs.a);
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
        to_p = side_of<kObjects>(e.cls_b, objs.b);
      }
      const bool remote = from_p != to_p;

      r.total_invocations += count;
      if (remote) {
        r.remote_invocations += count;
        if (is_native) r.remote_native_invocations += count;
        r.remote_bytes += count * static_cast<std::uint64_t>(e.bytes);
        r.comm_time += times * rpc_cost(static_cast<std::uint64_t>(e.bytes));
      }
      return remote;
    }

    case TraceEventType::access: {
      const bool is_static = (e.flags & kFlagStatic) != 0;
      const int from_p = side_of<kObjects>(e.cls_a, objs.a);
      // Static data lives on the client; object data follows placement.
      const int to_p = is_static ? 0 : side_of<kObjects>(e.cls_b, objs.b);
      const bool remote = from_p != to_p;

      r.total_accesses += count;
      if (remote) {
        r.remote_accesses += count;
        r.remote_bytes += count * static_cast<std::uint64_t>(e.bytes);
        r.comm_time += times * rpc_cost(static_cast<std::uint64_t>(e.bytes));
      }
      return remote;
    }

    default:
      return false;
  }
}

// The hooks fed below read no event time: on_alloc, on_free,
// on_method_exit and record_event (behind on_invoke and on_access) ignore
// it, so they get 0 and the time column is read only where a decision reads
// it, at an evaluation. Under class granularity no object id changes a
// component: ExecutionMonitor::index_of reads the id only when
// arrays_as_objects is set, and record_event then keys on the class pair
// alone. So the objects column is read for interactions and frame exits
// only under the Array enhancement.
template <bool kFeed, bool kObjects>
bool Emulator::replay_event(const TraceEvents& events, std::size_t i,
                            Replay& r) {
  const HotEvent& e = events.hot()[i];
  switch (e.type) {
    case TraceEventType::alloc:
      monitor_->on_alloc(kEmulatedClient, events.objects()[i].a, e.cls_a,
                         e.bytes, 0);
      r.live_bytes += e.bytes;
      r.alloc_since_gc += e.bytes;
      break;

    case TraceEventType::free_obj:
      monitor_->on_free(kEmulatedClient, events.objects()[i].a, e.cls_a,
                        e.bytes, 0);
      r.live_bytes -= e.bytes;
      r.freed_since_gc += e.bytes;
      break;

    case TraceEventType::resize: {
      // Events arrive in index order, so one forward cursor walks the sparse
      // aux list past the GC reports' entries. A resize without an entry has
      // delta 0.
      const std::vector<AuxEntry>& aux = events.aux();
      while (r.aux_ix < aux.size() && aux[r.aux_ix].index < i) ++r.aux_ix;
      const std::int64_t delta =
          r.aux_ix < aux.size() && aux[r.aux_ix].index == i
              ? aux[r.aux_ix].aux1
              : 0;
      monitor_->on_resize(kEmulatedClient, events.objects()[i].a, e.cls_a,
                          delta);
      r.live_bytes += delta;
      break;
    }

    case TraceEventType::method_enter:
      break;

    case TraceEventType::method_exit: {
      const ObjectId obj = kObjects ? events.objects()[i].a : ObjectId{};
      charge<kObjects>(e, {obj, ObjectId{}}, 1, r);
      if constexpr (kFeed) {
        monitor_->on_method_exit(kEmulatedClient, e.cls_a, obj, e.method,
                                 e.bytes, 0);
      }
      break;
    }

    case TraceEventType::invoke: {
      const EventObjects objs = kObjects ? events.objects()[i] : EventObjects{};
      const bool remote = charge<kObjects>(e, objs, 1, r);
      if constexpr (!kFeed) break;

      vm::InvokeEvent ev;
      ev.vm = kEmulatedClient;
      ev.caller_cls = e.cls_a;
      ev.caller_obj = objs.a;
      ev.callee_cls = e.cls_b;
      ev.callee_obj = objs.b;
      ev.method = e.method;
      ev.is_native = (e.flags & kFlagNative) != 0;
      ev.is_static = (e.flags & kFlagStatic) != 0;
      ev.is_stateless = (e.flags & kFlagStateless) != 0;
      ev.remote = remote;
      ev.bytes = static_cast<std::uint64_t>(e.bytes);
      monitor_->on_invoke(ev);
      break;
    }

    case TraceEventType::access: {
      const EventObjects objs = kObjects ? events.objects()[i] : EventObjects{};
      const bool remote = charge<kObjects>(e, objs, 1, r);
      if constexpr (!kFeed) break;

      vm::AccessEvent ev;
      ev.vm = kEmulatedClient;
      ev.from_cls = e.cls_a;
      ev.from_obj = objs.a;
      ev.to_cls = e.cls_b;
      ev.to_obj = objs.b;
      ev.is_write = (e.flags & kFlagWrite) != 0;
      ev.is_static = (e.flags & kFlagStatic) != 0;
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
          std::max<std::int64_t>(r.live_bytes - offloaded, 0);
      r.peak_client_live = std::max(r.peak_client_live, client_live);

      vm::GcReport rep;
      rep.cycle = ++r.gc_cycle;
      rep.used_before = client_live + r.freed_since_gc;
      rep.used_after = client_live;
      rep.capacity = config_.heap_capacity;
      rep.freed = r.freed_since_gc;
      r.freed_since_gc = 0;

      // GC-pressure model: near exhaustion, every consumed byte of
      // headroom costs another collection cycle over the live set.
      if (config_.gc_pressure_cost_ns_per_live_byte > 0.0) {
        const double headroom = std::max<double>(
            static_cast<double>(config_.heap_capacity - client_live),
            static_cast<double>(config_.heap_capacity) / 64.0);
        const double cycles =
            static_cast<double>(r.alloc_since_gc) / headroom;
        r.gc_pressure_time += static_cast<SimDuration>(
            cycles * static_cast<double>(client_live) *
            config_.gc_pressure_cost_ns_per_live_byte);
      }
      r.alloc_since_gc = 0;
      if constexpr (!kFeed) break;

      monitor_->on_gc(kEmulatedClient, rep);
      resource_->feed(rep);

      if (config_.trigger_mode == TriggerMode::memory_gc &&
          resource_->triggered()) {
        resource_->consume_trigger();
        try_offload(events.times()[i], result_);
        return result_.offloads.size() >= config_.max_offloads;
      }
      break;
    }
  }
  return false;
}

}  // namespace aide::emul
