// The execution graph (paper section 3.4).
//
// A fully-connected weighted graph reflecting the application's execution
// history. Each node represents a component (normally a class) annotated
// with the memory occupied by its live objects and the CPU self-time spent in
// its methods (Figure 9 attribution). Each edge represents the interactions
// between two components, annotated with the interaction count and the total
// bytes exchanged through parameters, return values and data accesses.
//
// Storage layout: the graph owns a ComponentKey -> NodeIndex interning table
// and keeps all node and edge records in flat vectors. A NodeIndex is a dense
// uint32 handle that stays valid until remove_components()/clear(); an
// EdgeSlot is the same for edges. The monitoring hot path (one VM event ->
// one edge bump) resolves its components to indices once and then touches
// only vector slots — no hashing and no allocation in steady state. The
// per-node adjacency lists give the partitioning algorithms O(deg(v)) access
// to a component's interactions without scanning the whole edge set.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/simclock.hpp"
#include "graph/component.hpp"

namespace aide::graph {

struct NodeInfo {
  // Bytes currently occupied by live objects of this component.
  std::int64_t mem_bytes = 0;
  // Peak of mem_bytes over the component's lifetime.
  std::int64_t peak_mem_bytes = 0;
  // CPU self-time spent in this component's methods (nested calls excluded).
  SimDuration exec_self_time = 0;
  // Components that cannot leave the client (native state, statics).
  bool pinned = false;
  // Number of live objects aggregated into this node.
  std::int64_t live_objects = 0;
};

struct EdgeInfo {
  std::uint64_t invocations = 0;  // method-invocation interaction events
  std::uint64_t accesses = 0;     // data-field access interaction events
  std::uint64_t bytes = 0;        // parameters + returns + accessed data

  [[nodiscard]] std::uint64_t interactions() const noexcept {
    return invocations + accesses;
  }
};

struct EdgeKey {
  ComponentKey a, b;  // canonical: a <= b

  friend bool operator==(const EdgeKey&, const EdgeKey&) noexcept = default;
};

}  // namespace aide::graph

namespace std {
template <>
struct hash<aide::graph::EdgeKey> {
  size_t operator()(const aide::graph::EdgeKey& e) const noexcept {
    const size_t h1 = std::hash<aide::graph::ComponentKey>{}(e.a);
    const size_t h2 = std::hash<aide::graph::ComponentKey>{}(e.b);
    return h1 * 0x100000001B3ULL ^ h2;
  }
};
}  // namespace std

namespace aide::graph {

class ExecGraph {
 public:
  // Dense handle for an interned component; valid until the node set shrinks
  // (remove_components/clear). Assigned in interning order, 0..node_count-1.
  using NodeIndex = std::uint32_t;
  // Dense handle for an undirected edge record, 0..edge_count-1.
  using EdgeSlot = std::uint32_t;
  static constexpr NodeIndex npos = 0xFFFFFFFFu;

  // One adjacency entry of node v: the neighbor and the shared edge slot.
  struct AdjEntry {
    NodeIndex neighbor;
    EdgeSlot slot;
  };

  // --- interning ----------------------------------------------------------

  // Returns the dense index for `key`, creating the node if needed.
  NodeIndex intern(const ComponentKey& key) {
    const auto [it, inserted] =
        index_.try_emplace(key, static_cast<NodeIndex>(keys_.size()));
    if (inserted) {
      keys_.push_back(key);
      infos_.emplace_back();
      adj_.emplace_back();
    }
    return it->second;
  }

  // Dense index of `key`, or npos when the component is not in the graph.
  [[nodiscard]] NodeIndex index_of(const ComponentKey& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? npos : it->second;
  }

  [[nodiscard]] const ComponentKey& key_of(NodeIndex i) const {
    return keys_[i];
  }
  [[nodiscard]] NodeInfo& node_at(NodeIndex i) { return infos_[i]; }
  [[nodiscard]] const NodeInfo& node_at(NodeIndex i) const {
    return infos_[i];
  }

  [[nodiscard]] const std::vector<AdjEntry>& adjacency(NodeIndex i) const {
    return adj_[i];
  }

  // --- construction -------------------------------------------------------

  NodeInfo& node(const ComponentKey& key) { return infos_[intern(key)]; }

  [[nodiscard]] const NodeInfo* find_node(const ComponentKey& key) const {
    const NodeIndex i = index_of(key);
    return i == npos ? nullptr : &infos_[i];
  }

  // Finds or creates the undirected edge {a, b}. Returns npos for a == b:
  // self-interactions are never recorded, matching the paper ("Information
  // is recorded only for interactions between two different classes").
  EdgeSlot interaction_edge(NodeIndex a, NodeIndex b) {
    if (a == b) return npos;
    const auto [it, inserted] =
        edge_index_.try_emplace(pack_edge(a, b),
                                static_cast<EdgeSlot>(edge_infos_.size()));
    if (inserted) {
      edge_infos_.emplace_back();
      edge_ends_.emplace_back(a, b);
      adj_[a].push_back(AdjEntry{b, it->second});
      adj_[b].push_back(AdjEntry{a, it->second});
    }
    return it->second;
  }

  // O(1) hot-path update of an existing edge slot.
  void bump_edge(EdgeSlot slot, bool is_invocation,
                 std::uint64_t transferred_bytes) {
    EdgeInfo& e = edge_infos_[slot];
    // Branchless: the event kind flips between bursts, so two unconditional
    // adds beat a mispredict-prone branch on the hot path.
    e.invocations += static_cast<std::uint64_t>(is_invocation);
    e.accesses += static_cast<std::uint64_t>(!is_invocation);
    e.bytes += transferred_bytes;
  }

  // Records one interaction between two already-interned components and
  // returns the edge slot touched (npos for a self-interaction), so callers
  // on the hot path can cache it and bump directly next time.
  EdgeSlot record_interaction_at(NodeIndex from, NodeIndex to,
                                 bool is_invocation,
                                 std::uint64_t transferred_bytes) {
    const EdgeSlot slot = interaction_edge(from, to);
    if (slot != npos) bump_edge(slot, is_invocation, transferred_bytes);
    return slot;
  }

  // Key-based convenience wrapper (cold paths and tests).
  void record_interaction(const ComponentKey& from, const ComponentKey& to,
                          bool is_invocation, std::uint64_t transferred_bytes) {
    if (from == to) return;
    record_interaction_at(intern(from), intern(to), is_invocation,
                          transferred_bytes);
  }

  // Installs a complete edge record (used when rebuilding/merging graphs).
  void set_edge(const ComponentKey& a, const ComponentKey& b,
                const EdgeInfo& info) {
    if (a == b) return;
    const EdgeSlot slot = interaction_edge(intern(a), intern(b));
    edge_infos_[slot] = info;
  }

  void add_memory(const ComponentKey& key, std::int64_t delta_bytes,
                  std::int64_t delta_objects) {
    add_memory_at(intern(key), delta_bytes, delta_objects);
  }

  void add_memory_at(NodeIndex i, std::int64_t delta_bytes,
                     std::int64_t delta_objects) {
    NodeInfo& n = infos_[i];
    n.mem_bytes += delta_bytes;
    n.live_objects += delta_objects;
    if (n.mem_bytes > n.peak_mem_bytes) n.peak_mem_bytes = n.mem_bytes;
  }

  void add_self_time(const ComponentKey& key, SimDuration delta) {
    infos_[intern(key)].exec_self_time += delta;
  }

  void add_self_time_at(NodeIndex i, SimDuration delta) {
    infos_[i].exec_self_time += delta;
  }

  void set_pinned(const ComponentKey& key, bool pinned) {
    infos_[intern(key)].pinned = pinned;
  }

  // --- inspection ---------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const noexcept {
    return keys_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edge_infos_.size();
  }

  [[nodiscard]] EdgeInfo& edge_at(EdgeSlot slot) { return edge_infos_[slot]; }
  [[nodiscard]] const EdgeInfo& edge_at(EdgeSlot slot) const {
    return edge_infos_[slot];
  }
  [[nodiscard]] std::pair<NodeIndex, NodeIndex> edge_ends(
      EdgeSlot slot) const {
    return edge_ends_[slot];
  }

  [[nodiscard]] const EdgeInfo* find_edge(const ComponentKey& a,
                                          const ComponentKey& b) const {
    const NodeIndex ia = index_of(a);
    const NodeIndex ib = index_of(b);
    if (ia == npos || ib == npos || ia == ib) return nullptr;
    const auto it = edge_index_.find(pack_edge(ia, ib));
    return it == edge_index_.end() ? nullptr : &edge_infos_[it->second];
  }

  // Lightweight iteration views. They yield the same {key, info} /
  // {EdgeKey, EdgeInfo} pairs the old map-backed containers did, so range-for
  // call sites keep working; iteration order is interning order (stable and
  // deterministic for a given event stream).
  class NodesView {
   public:
    class iterator {
     public:
      iterator(const ExecGraph* g, std::size_t i) : g_(g), i_(i) {}
      std::pair<const ComponentKey&, const NodeInfo&> operator*() const {
        return {g_->keys_[i_], g_->infos_[i_]};
      }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      const ExecGraph* g_;
      std::size_t i_;
    };
    explicit NodesView(const ExecGraph* g) : g_(g) {}
    [[nodiscard]] iterator begin() const { return {g_, 0}; }
    [[nodiscard]] iterator end() const { return {g_, g_->keys_.size()}; }
    [[nodiscard]] std::size_t size() const { return g_->keys_.size(); }

   private:
    const ExecGraph* g_;
  };

  class EdgesView {
   public:
    class iterator {
     public:
      iterator(const ExecGraph* g, std::size_t i) : g_(g), i_(i) {}
      std::pair<EdgeKey, const EdgeInfo&> operator*() const {
        const auto [a, b] = g_->edge_ends_[i_];
        return {make_edge_key(g_->keys_[a], g_->keys_[b]),
                g_->edge_infos_[i_]};
      }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      const ExecGraph* g_;
      std::size_t i_;
    };
    explicit EdgesView(const ExecGraph* g) : g_(g) {}
    [[nodiscard]] iterator begin() const { return {g_, 0}; }
    [[nodiscard]] iterator end() const {
      return {g_, g_->edge_infos_.size()};
    }
    [[nodiscard]] std::size_t size() const { return g_->edge_infos_.size(); }

   private:
    const ExecGraph* g_;
  };

  [[nodiscard]] NodesView nodes() const noexcept { return NodesView{this}; }
  [[nodiscard]] EdgesView edges() const noexcept { return EdgesView{this}; }

  [[nodiscard]] std::int64_t total_mem_bytes() const noexcept {
    std::int64_t total = 0;
    for (const NodeInfo& n : infos_) total += n.mem_bytes;
    return total;
  }

  [[nodiscard]] SimDuration total_self_time() const noexcept {
    SimDuration total = 0;
    for (const NodeInfo& n : infos_) total += n.exec_self_time;
    return total;
  }

  [[nodiscard]] std::vector<ComponentKey> pinned_components() const {
    std::vector<ComponentKey> out;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (infos_[i].pinned) out.push_back(keys_[i]);
    }
    return out;
  }

  // Model footprint of the graph's payload records: one (key, info) record
  // per node and edge. This is the paper's Table 2 storage-overhead metric;
  // kept layout-independent so the reported numbers stay comparable across
  // storage reorganizations. storage_bytes_actual() reports the real
  // allocated footprint of the dense representation.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return keys_.size() * (sizeof(ComponentKey) + sizeof(NodeInfo)) +
           edge_infos_.size() * (sizeof(EdgeKey) + sizeof(EdgeInfo));
  }

  // Allocated bytes of the dense storage: flat vectors by capacity plus an
  // estimate of the two interning hash tables (node entry + bucket pointer).
  [[nodiscard]] std::size_t storage_bytes_actual() const noexcept {
    std::size_t total = keys_.capacity() * sizeof(ComponentKey) +
                        infos_.capacity() * sizeof(NodeInfo) +
                        adj_.capacity() * sizeof(std::vector<AdjEntry>) +
                        edge_infos_.capacity() * sizeof(EdgeInfo) +
                        edge_ends_.capacity() *
                            sizeof(std::pair<NodeIndex, NodeIndex>);
    for (const auto& a : adj_) total += a.capacity() * sizeof(AdjEntry);
    total += index_.size() *
                 (sizeof(ComponentKey) + sizeof(NodeIndex) + 2 * sizeof(void*)) +
             index_.bucket_count() * sizeof(void*);
    total += edge_index_.size() *
                 (sizeof(std::uint64_t) + sizeof(EdgeSlot) + 2 * sizeof(void*)) +
             edge_index_.bucket_count() * sizeof(void*);
    return total;
  }

  void clear() {
    keys_.clear();
    infos_.clear();
    adj_.clear();
    index_.clear();
    edge_infos_.clear();
    edge_ends_.clear();
    edge_index_.clear();
  }

  // Erases every component in `dead` (with its edges) in one O(V + E)
  // compaction pass. Surviving nodes keep their relative interning order but
  // are assigned new dense indices — callers holding NodeIndex/EdgeSlot
  // values must re-resolve them afterwards. Returns the old -> new index map
  // (npos for an erased node), or an empty vector when nothing listed was
  // present and every index stands.
  std::vector<NodeIndex> remove_components(
      const std::unordered_set<ComponentKey>& dead);

  // Renders the graph in Graphviz DOT format. `placement` optionally maps
  // components to a partition index; edges that cross partitions are drawn
  // dashed (Figure 5b's "stretched" remote interactions).
  [[nodiscard]] std::string to_dot(
      const std::unordered_map<ComponentKey, int>* placement = nullptr,
      const std::unordered_map<ComponentKey, std::string>* names = nullptr)
      const;

  static EdgeKey make_edge_key(const ComponentKey& x, const ComponentKey& y) {
    return (y < x) ? EdgeKey{y, x} : EdgeKey{x, y};
  }

 private:
  static std::uint64_t pack_edge(NodeIndex a, NodeIndex b) noexcept {
    if (b < a) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  // Dense node storage: keys_[i] / infos_[i] / adj_[i] describe node i.
  std::vector<ComponentKey> keys_;
  std::vector<NodeInfo> infos_;
  std::vector<std::vector<AdjEntry>> adj_;
  std::unordered_map<ComponentKey, NodeIndex> index_;

  // Dense edge storage: edge_infos_[s] / edge_ends_[s] describe slot s; the
  // edge index maps the packed (min, max) node-index pair to its slot.
  std::vector<EdgeInfo> edge_infos_;
  std::vector<std::pair<NodeIndex, NodeIndex>> edge_ends_;
  std::unordered_map<std::uint64_t, EdgeSlot> edge_index_;
};

}  // namespace aide::graph
