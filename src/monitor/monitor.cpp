#include "monitor/monitor.hpp"

#include <algorithm>

namespace aide::monitor {

ExecutionMonitor::ExecutionMonitor(
    std::shared_ptr<const vm::ClassRegistry> registry, MonitorConfig config)
    : registry_(std::move(registry)), config_(std::move(config)) {
  for (const ClassId cls : config_.granularity.object_granularity_classes) {
    object_granularity_classes_.insert(cls);
  }
  class_only_ = !config_.granularity.arrays_as_objects;
}

graph::ComponentKey ExecutionMonitor::component_of(ClassId cls,
                                                   ObjectId obj) const {
  const NodeIndex i = index_of(cls, obj);
  return i == graph::ExecGraph::npos ? graph::ComponentKey{cls}
                                     : graph_.key_of(i);
}

void ExecutionMonitor::note_class_seen(ClassId cls) {
  if (cls.value() < class_seen_.size() && class_seen_[cls.value()]) return;
  // Pinning rule (paper 3.3): classes containing (stateful) native methods
  // cannot be offloaded and seed the client partition. An explicit
  // pin_reason (ui, user-pinned) pins the same way. The checked lookup runs
  // first, so an unknown id throws before anything is written.
  const bool pinned = registry_->get(cls).is_pinned();
  if (cls.value() >= class_seen_.size()) {
    class_seen_.resize(registry_->size(), false);
  }
  class_seen_[cls.value()] = true;
  ++classes_seen_count_;
  counters_.class_events += 1;
  graph_.node_at(class_index(cls)).pinned = pinned;
}

ExecutionMonitor::NodeIndex ExecutionMonitor::class_index(ClassId cls) {
  if (cls.value() < class_node_.size() &&
      class_node_[cls.value()] != graph::ExecGraph::npos) {
    return class_node_[cls.value()];
  }
  (void)registry_->get(cls);  // throws for an id past the registry
  if (cls.value() >= class_node_.size()) {
    class_node_.resize(registry_->size(), graph::ExecGraph::npos);
  }
  return class_node_[cls.value()] = graph_.intern(graph::ComponentKey{cls});
}

void ExecutionMonitor::record_edge(NodeIndex from, NodeIndex to,
                                   bool is_invocation, std::uint64_t bytes) {
  // Self-interactions are never recorded (paper: "Information is recorded
  // only for interactions between two different classes").
  if (from == to) return;
  NodeIndex a = from, b = to;
  if (b < a) std::swap(a, b);
  if (a == edge_cache_a_ && b == edge_cache_b_) {
    graph_.bump_edge(edge_cache_slot_, is_invocation, bytes);
    return;
  }
  edge_cache_slot_ = graph_.record_interaction_at(from, to, is_invocation,
                                                  bytes);
  edge_cache_a_ = a;
  edge_cache_b_ = b;
}

bool ExecutionMonitor::ensure_pair_table() {
  const std::size_t n = registry_->size();
  if (n > kMaxPairTableClasses) return false;
  if (class_pair_stride_ < n) {
    class_pair_stride_ = n;
    class_pair_slot_.assign(n * n, graph::ExecGraph::npos);
  }
  return true;
}

void ExecutionMonitor::record_event_slow(ClassId from_cls, ObjectId from_obj,
                                         ClassId to_cls, ObjectId to_obj,
                                         bool is_invocation,
                                         std::uint64_t bytes) {
  const std::uint64_t sig =
      (static_cast<std::uint64_t>(from_cls.value()) << 32) | to_cls.value();
  constexpr EdgeSlot kNothing = graph::ExecGraph::npos;

  // Events whose endpoints resolve to class nodes go through the dense pair
  // table: one array load instead of the gate and an EdgeKey hash probe.
  const bool class_resolved =
      class_only_ || (!from_obj.valid() && !to_obj.valid());
  EdgeSlot* entry = nullptr;
  if (class_resolved && ensure_pair_table() &&
      from_cls.value() < class_pair_stride_ &&
      to_cls.value() < class_pair_stride_) {
    entry = &class_pair_slot_[from_cls.value() * class_pair_stride_ +
                              to_cls.value()];
    if (*entry != kNothing) {
      fill_event_cache(sig, from_obj, to_obj, *entry);
      graph_.bump_edge(*entry, is_invocation, bytes);
      return;
    }
  }
  // Self-interactions are never recorded. A seen, interned class has nothing
  // left to do for its self pair; any other class still runs the gate (and
  // re-interns a node an external graph() mutation removed).
  if (class_resolved && from_cls == to_cls &&
      from_cls.value() < class_seen_.size() &&
      class_seen_[from_cls.value()] &&
      index_of(from_cls, ObjectId::invalid()) != graph::ExecGraph::npos) {
    fill_event_cache(sig, from_obj, to_obj, kNothing);
    return;
  }

  note_class_seen(from_cls);
  note_class_seen(to_cls);
  const NodeIndex from = resolve_index(from_cls, from_obj);
  const NodeIndex to = resolve_index(to_cls, to_obj);
  if (from == to) {
    fill_event_cache(sig, from_obj, to_obj, kNothing);
    return;
  }
  record_edge(from, to, is_invocation, bytes);
  // record_edge leaves the (min, max) edge cache at this pair's slot.
  if (entry != nullptr) *entry = edge_cache_slot_;
  fill_event_cache(sig, from_obj, to_obj, edge_cache_slot_);
}

void ExecutionMonitor::on_alloc(NodeId, ObjectId obj, ClassId cls,
                                std::int64_t bytes, SimTime) {
  counters_.objects_created += 1;
  counters_.class_events += 1;

  note_class_seen(cls);
  NodeIndex idx;
  const auto& g = config_.granularity;
  if (g.arrays_as_objects && bytes >= g.min_array_bytes &&
      object_granularity_classes_.contains(cls)) {
    idx = graph_.intern(graph::ComponentKey{cls, obj});
    object_node_[obj] = idx;
    drop_event_cache();  // (cls, obj) now resolves to the object node
  } else {
    idx = class_index(cls);
  }
  graph_.add_memory_at(idx, bytes, +1);
}

void ExecutionMonitor::on_resize(NodeId, ObjectId obj, ClassId cls,
                                 std::int64_t delta) {
  graph_.add_memory_at(resolve_index(cls, obj), delta, 0);
}

void ExecutionMonitor::on_free(NodeId, ObjectId obj, ClassId cls,
                               std::int64_t bytes, SimTime) {
  counters_.objects_freed += 1;
  counters_.class_events += 1;
  graph_.add_memory_at(resolve_index(cls, obj), -bytes, -1);
  if (object_node_.erase(obj) != 0) {
    drop_event_cache();  // (cls, obj) falls back to the class node
  }
}

void ExecutionMonitor::on_gc(NodeId, const vm::GcReport&) {
  MetricsSample s;
  s.classes = classes_seen_count_;
  s.live_objects = static_cast<std::size_t>(
      counters_.objects_created - counters_.objects_freed);
  s.links = graph_.edge_count();
  samples_.push_back(s);
}

std::unordered_map<graph::ComponentKey, std::string>
ExecutionMonitor::component_names() const {
  std::unordered_map<graph::ComponentKey, std::string> names;
  for (const auto& [key, info] : graph_.nodes()) {
    std::string label = registry_->get(key.cls).name;
    if (key.is_object_granularity()) {
      // Two appends rather than `"#" + to_string(...)`: the temporary-concat
      // form trips GCC 12's -Wrestrict false positive (PR105329) under some
      // inlining contexts, and this build is -Werror.
      label += '#';
      label += std::to_string(key.object.value() & 0xFFFFFFFFULL);
    }
    names[key] = std::move(label);
  }
  return names;
}

MetricsSummary ExecutionMonitor::metrics_summary() const {
  MetricsSummary out;
  out.total_classes = classes_seen_count_;
  out.total_objects = counters_.objects_created;
  out.total_interaction_events = counters_.interaction_events();
  if (samples_.empty()) {
    out.avg_classes = static_cast<double>(classes_seen_count_);
    out.max_classes = classes_seen_count_;
    const auto live = static_cast<std::size_t>(
        counters_.objects_created - counters_.objects_freed);
    out.avg_objects = static_cast<double>(live);
    out.max_objects = live;
    out.avg_links = static_cast<double>(graph_.edge_count());
    out.max_links = graph_.edge_count();
    return out;
  }
  double sc = 0, so = 0, sl = 0;
  for (const auto& s : samples_) {
    sc += static_cast<double>(s.classes);
    so += static_cast<double>(s.live_objects);
    sl += static_cast<double>(s.links);
    out.max_classes = std::max(out.max_classes, s.classes);
    out.max_objects = std::max(out.max_objects, s.live_objects);
    out.max_links = std::max(out.max_links, s.links);
  }
  const auto n = static_cast<double>(samples_.size());
  out.avg_classes = sc / n;
  out.avg_objects = so / n;
  out.avg_links = sl / n;
  return out;
}

std::vector<ExecutionMonitor::NodeIndex>
ExecutionMonitor::prune_dead_components() {
  // Object-granularity nodes whose objects died carry no future-placement
  // information; drop them (with their edges) before partitioning.
  std::unordered_set<graph::ComponentKey> dead;
  for (const auto& [key, info] : graph_.nodes()) {
    if (key.is_object_granularity() && info.live_objects <= 0) {
      dead.insert(key);
    }
  }
  if (dead.empty()) return {};
  std::vector<NodeIndex> remap = graph_.remove_components(dead);
  rebuild_caches();
  return remap;
}

void ExecutionMonitor::rebuild_caches() {
  edge_cache_a_ = graph::ExecGraph::npos;
  edge_cache_b_ = graph::ExecGraph::npos;
  edge_cache_slot_ = graph::ExecGraph::npos;
  drop_event_cache();
  std::fill(class_pair_slot_.begin(), class_pair_slot_.end(),
            graph::ExecGraph::npos);
  std::fill(class_node_.begin(), class_node_.end(), graph::ExecGraph::npos);
  object_node_.clear();
  for (NodeIndex i = 0; i < graph_.node_count(); ++i) {
    const graph::ComponentKey& key = graph_.key_of(i);
    if (key.is_object_granularity()) {
      // A freed object keeps its node until the next prune, but already
      // resolves to its class (on_free dropped the mapping).
      if (graph_.node_at(i).live_objects > 0) object_node_[key.object] = i;
    } else {
      if (key.cls.value() >= class_node_.size()) {
        class_node_.resize(key.cls.value() + 1, graph::ExecGraph::npos);
      }
      class_node_[key.cls.value()] = i;
    }
  }
}

void ExecutionMonitor::reset() {
  graph_.clear();
  counters_ = MonitorCounters{};
  class_node_.clear();
  object_node_.clear();
  samples_.clear();
  class_seen_.clear();
  classes_seen_count_ = 0;
  edge_cache_a_ = graph::ExecGraph::npos;
  edge_cache_b_ = graph::ExecGraph::npos;
  edge_cache_slot_ = graph::ExecGraph::npos;
  drop_event_cache();
  class_pair_slot_.clear();
  class_pair_stride_ = 0;
}

}  // namespace aide::monitor
