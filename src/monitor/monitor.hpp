// Execution monitoring (paper section 3.4).
//
// The ExecutionMonitor implements the VM hook surface and aggregates raw
// object-level events into the class-level execution graph: per-component
// live memory, per-component CPU self-time (Figure 9), and inter-component
// interaction edges weighted by event count and bytes exchanged. It also
// maintains the Table 2 bookkeeping (classes/objects/interaction events,
// sampled at every GC cycle) and the remote-invocation counters behind
// Figure 8.
//
// Component granularity follows the paper: classes by default; with the
// "Array" enhancement enabled (section 5.2), large primitive arrays become
// object-granularity components that can be placed independently.
//
// Hot-path layout: components resolve to dense ExecGraph::NodeIndex handles
// through a per-class vector (no hashing for class-granularity events) and a
// single-entry edge-slot cache that services runs of events between the same
// component pair with one array bump — zero allocations and zero hash probes
// in steady state. The caches are rebuilt whenever node indices shift
// (prune_dead_components / reset).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/exec_graph.hpp"
#include "vm/hooks.hpp"
#include "vm/klass.hpp"

namespace aide::monitor {

struct GranularityPolicy {
  // Track designated array classes at object granularity (paper 5.2).
  bool arrays_as_objects = false;
  // Only arrays at least this large become independent components; smaller
  // ones fold into their class node.
  std::int64_t min_array_bytes = 4096;
  // Classes eligible for object granularity (typically "int[]").
  std::vector<ClassId> object_granularity_classes;
};

struct MonitorConfig {
  GranularityPolicy granularity;
};

// One Table 2 style sample row, captured at each GC cycle.
struct MetricsSample {
  std::size_t classes = 0;
  std::size_t live_objects = 0;
  std::size_t links = 0;
};

struct MonitorCounters {
  std::uint64_t invoke_events = 0;
  std::uint64_t access_events = 0;
  std::uint64_t class_events = 0;   // creations + deletions
  std::uint64_t objects_created = 0;
  std::uint64_t objects_freed = 0;
  std::uint64_t remote_invocations = 0;
  std::uint64_t remote_native_invocations = 0;  // Figure 8 numerator
  std::uint64_t remote_accesses = 0;

  [[nodiscard]] std::uint64_t interaction_events() const noexcept {
    return invoke_events + access_events;
  }
};

// Aggregated Table 2 summary.
struct MetricsSummary {
  double avg_classes = 0, avg_objects = 0, avg_links = 0;
  std::size_t max_classes = 0, max_objects = 0, max_links = 0;
  std::size_t total_classes = 0;
  std::uint64_t total_objects = 0;
  std::uint64_t total_interaction_events = 0;
};

class ExecutionMonitor final : public vm::VmHooks {
 public:
  using NodeIndex = graph::ExecGraph::NodeIndex;

  ExecutionMonitor(std::shared_ptr<const vm::ClassRegistry> registry,
                   MonitorConfig config = {});

  // --- VmHooks -------------------------------------------------------------

  // The interaction and frame-exit hooks are defined in-class, and the class
  // is final, so a caller holding the concrete monitor (a VM's monitor slot,
  // the emulator, the benches) calls them without virtual dispatch and can
  // inline the whole cache-hit path into its loop.
  void on_invoke(const vm::InvokeEvent& ev) override {
    counters_.invoke_events += 1;
    if (ev.remote) {
      counters_.remote_invocations += 1;
      if (ev.is_native) counters_.remote_native_invocations += 1;
    }
    record_event(ev.caller_cls, ev.caller_obj, ev.callee_cls, ev.callee_obj,
                 /*is_invocation=*/true, ev.bytes);
  }

  void on_access(const vm::AccessEvent& ev) override {
    counters_.access_events += 1;
    if (ev.remote) counters_.remote_accesses += 1;
    record_event(ev.from_cls, ev.from_obj, ev.to_cls, ev.to_obj,
                 /*is_invocation=*/false, ev.bytes);
  }
  void on_method_exit(NodeId /*vm*/, ClassId cls, ObjectId obj,
                      MethodId /*m*/, SimDuration self_time,
                      SimTime /*t*/) override {
    graph_.add_self_time_at(resolve_index(cls, obj), self_time);
  }
  void on_alloc(NodeId vm, ObjectId obj, ClassId cls, std::int64_t bytes,
                SimTime t) override;
  void on_resize(NodeId vm, ObjectId obj, ClassId cls,
                 std::int64_t delta) override;
  void on_free(NodeId vm, ObjectId obj, ClassId cls, std::int64_t bytes,
               SimTime t) override;
  void on_gc(NodeId vm, const vm::GcReport& report) override;

  // --- queries -------------------------------------------------------------

  [[nodiscard]] const graph::ExecGraph& graph() const noexcept {
    return graph_;
  }
  // Mutable access: callers that add/remove nodes or edges through this
  // reference must be followed by rebuild_caches() — the monitor caches node
  // indices and edge slots.
  [[nodiscard]] graph::ExecGraph& graph() noexcept { return graph_; }

  [[nodiscard]] const MonitorCounters& counters() const noexcept {
    return counters_;
  }

  // Maps a raw (class, object) pair onto its placement component under the
  // current granularity policy.
  [[nodiscard]] graph::ComponentKey component_of(ClassId cls,
                                                 ObjectId obj) const;

  // Dense graph index of component_of(cls, obj), or ExecGraph::npos while
  // that component is not interned (including class ids past the registry).
  // Side-effect free: callers keeping per-node arrays (the emulator's
  // placement) look components up without building or hashing a key.
  [[nodiscard]] NodeIndex index_of(ClassId cls, ObjectId obj) const {
    // Object-granularity promotion only ever happens under the Array
    // enhancement, and only to objects of a class marked in may_promote_, so
    // the common configuration and every other class skip the object lookup.
    if (config_.granularity.arrays_as_objects && obj.valid() &&
        cls.value() < may_promote_.size() && may_promote_[cls.value()] != 0) {
      const auto it = object_node_.find(obj);
      if (it != object_node_.end()) return it->second;
    }
    return cls.value() < class_node_.size() ? class_node_[cls.value()]
                                            : graph::ExecGraph::npos;
  }

  // Class-name labels for DOT rendering.
  [[nodiscard]] std::unordered_map<graph::ComponentKey, std::string>
  component_names() const;

  [[nodiscard]] MetricsSummary metrics_summary() const;

  // Removes object-granularity components whose objects have all been freed,
  // so the partitioner never places dead components. Surviving nodes are
  // renumbered: returns the old -> new index map (npos for a pruned node),
  // empty when nothing was pruned and every index stands.
  std::vector<NodeIndex> prune_dead_components();

  // Re-derives the node-index and edge-slot caches from the graph. Must be
  // called after any external mutation through the non-const graph()
  // accessor; prune/reset invoke it internally.
  void rebuild_caches();

  void reset();

 private:
  using EdgeSlot = graph::ExecGraph::EdgeSlot;

  // First-seen gate: on a class's first event, count it, record the class
  // event, and apply the pinning rule (which creates the class node). Throws
  // VmError(unknown_class) for an id past the registry, before any write.
  void note_class_seen(ClassId cls);

  void mark_may_promote(ClassId cls) {
    if (!cls.valid()) return;
    if (cls.value() >= may_promote_.size()) {
      may_promote_.resize(cls.value() + 1, 0);
    }
    may_promote_[cls.value()] = 1;
  }

  // Dense index of the class-granularity node for `cls` (interned on first
  // use, then a vector load). Same unknown-class throw as note_class_seen.
  NodeIndex class_index(ClassId cls);

  // Resolves an event's (class, object) pair to its component node under the
  // granularity policy. Does not run the first-seen gate.
  NodeIndex resolve_index(ClassId cls, ObjectId obj) {
    const NodeIndex i = index_of(cls, obj);
    return i != graph::ExecGraph::npos ? i : class_index(cls);
  }

  // Gate + resolution + edge update for one interaction event. When the raw
  // endpoints repeat, the single-entry event cache resolves the whole event
  // to a pre-located edge slot: one signature compare and one array bump, no
  // hashing and no allocation. Under class granularity (the default — no
  // Array enhancement) objects cannot affect resolution, so the cache keys on
  // the packed class pair alone and hits across object churn.
  void record_event(ClassId from_cls, ObjectId from_obj, ClassId to_cls,
                    ObjectId to_obj, bool is_invocation, std::uint64_t bytes) {
    const std::uint64_t sig =
        (static_cast<std::uint64_t>(from_cls.value()) << 32) | to_cls.value();
    if (class_only_
            ? sig == ev_cache_cls_sig_
            // Branchless three-way equality fold: one well-predicted branch
            // instead of three short-circuited ones.
            : ((sig ^ ev_cache_cls_sig_) |
               (from_obj.value() ^ ev_cache_from_obj_.value()) |
               (to_obj.value() ^ ev_cache_to_obj_.value())) == 0) {
      if (ev_cache_slot_ != graph::ExecGraph::npos) {
        graph_.bump_edge(ev_cache_slot_, is_invocation, bytes);
      }
      return;
    }
    record_event_slow(from_cls, from_obj, to_cls, to_obj, is_invocation,
                      bytes);
  }

  // Event-cache miss. Class-resolved events ask the dense pair table first:
  // a filled entry proves both classes already passed the first-seen gate
  // (rebuild_caches() and reset() clear the table), so the event is one edge
  // bump. A class-resolved self pair whose class is seen and interned
  // records nothing. Everything else runs the gate, component resolution and
  // the edge lookup ((min, max) slot cache, then the edge hash map). Each
  // path refills the event cache on the way out.
  void record_event_slow(ClassId from_cls, ObjectId from_obj, ClassId to_cls,
                         ObjectId to_obj, bool is_invocation,
                         std::uint64_t bytes);

  void drop_event_cache() noexcept { ev_cache_cls_sig_ = kNoEventCache; }
  void fill_event_cache(std::uint64_t sig, ObjectId from_obj, ObjectId to_obj,
                        EdgeSlot slot) noexcept {
    ev_cache_cls_sig_ = sig;
    ev_cache_from_obj_ = from_obj;
    ev_cache_to_obj_ = to_obj;
    ev_cache_slot_ = slot;
  }

  // Records one interaction through the single-entry edge-slot cache.
  void record_edge(NodeIndex from, NodeIndex to, bool is_invocation,
                   std::uint64_t bytes);

  std::shared_ptr<const vm::ClassRegistry> registry_;
  MonitorConfig config_;
  graph::ExecGraph graph_;
  MonitorCounters counters_;

  // ClassId -> node index of the class-granularity node (npos = not interned).
  std::vector<NodeIndex> class_node_;
  // Live promoted object -> its object-granularity node.
  std::unordered_map<ObjectId, NodeIndex> object_node_;
  std::unordered_set<ClassId> object_granularity_classes_;
  // ClassId -> 1 when objects of the class may sit in object_node_: set for
  // object_granularity_classes_ and, by rebuild_caches(), for the class of
  // any object-keyed node. Never cleared, so a set byte only costs a probe.
  std::vector<std::uint8_t> may_promote_;
  std::vector<MetricsSample> samples_;
  // Dense seen-class bitmap: this sits on the hot path of every interaction
  // event (the monitoring-overhead experiment measures exactly this code).
  std::vector<bool> class_seen_;
  std::size_t classes_seen_count_ = 0;

  // Single-entry edge cache: last (min, max) node pair and its edge slot.
  // Event streams are bursty — runs of interactions between the same pair —
  // so this hits without touching the edge hash table.
  NodeIndex edge_cache_a_ = graph::ExecGraph::npos;
  NodeIndex edge_cache_b_ = graph::ExecGraph::npos;
  EdgeSlot edge_cache_slot_ = graph::ExecGraph::npos;

  // Single-entry event cache: last raw (class, object) endpoint pair and the
  // edge slot it resolved to (npos = self-interaction, nothing to record).
  // A hit skips the first-seen gate (the cached pair has been fully processed
  // before), component resolution, and the edge lookup; it is dropped
  // whenever a (class, object) resolution could change (alloc promotion,
  // free of a promoted object, prune, reset). The two ClassIds are packed
  // into one 64-bit signature; kNoEventCache (both halves ClassId::invalid())
  // can never match a real event.
  static constexpr std::uint64_t kNoEventCache = ~std::uint64_t{0};
  std::uint64_t ev_cache_cls_sig_ = kNoEventCache;
  ObjectId ev_cache_from_obj_ = ObjectId::invalid();
  ObjectId ev_cache_to_obj_ = ObjectId::invalid();
  EdgeSlot ev_cache_slot_ = graph::ExecGraph::npos;

  // True when the granularity policy can never promote objects: resolution
  // then depends on the class pair alone, which unlocks the stronger event
  // cache key and the dense pair table below. Fixed at construction.
  bool class_only_ = true;

  // Dense (from_cls, to_cls) -> edge-slot table, filled lazily: event-cache
  // misses for class-resolved events cost one array load instead of an
  // EdgeKey hash probe. Only maintained while the registry is small enough
  // for the n^2 table to stay cache-friendly; cleared whenever edge slots
  // shift (prune/reset) or the registry grows past the current stride.
  static constexpr std::size_t kMaxPairTableClasses = 1024;
  std::vector<EdgeSlot> class_pair_slot_;
  std::size_t class_pair_stride_ = 0;

  // Lazily (re)sizes the pair table to the registry; false when the registry
  // is too large and callers must take the hash path.
  bool ensure_pair_table();
};

}  // namespace aide::monitor
