#include "partition/partitioner.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <numeric>

namespace aide::partition {

namespace {

// Deterministic union-find over dense sorted positions; the root of a set is
// always its smallest position, i.e. (positions being sorted by key) its
// smallest component key — the same representative the old key-based
// union-find chose.
class PositionUnionFind {
 public:
  explicit PositionUnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t p) {
    std::size_t root = p;
    while (parent_[root] != root) root = parent_[root];
    // Path compression.
    while (parent_[p] != root) {
      const std::size_t next = parent_[p];
      parent_[p] = root;
      p = next;
    }
    return root;
  }

  void unite(std::size_t a, std::size_t b) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra == rb) return;
    if (ra < rb) {
      parent_[rb] = ra;
    } else {
      parent_[ra] = rb;
    }
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

ContractedGraph contract_with_hints(const graph::ExecGraph& graph,
                                    const analysis::StaticHints& hints) {
  using NodeIndex = graph::ExecGraph::NodeIndex;
  ContractedGraph out;

  // Sorted-position view of the interned node set.
  const std::size_t n = graph.node_count();
  std::vector<NodeIndex> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeIndex{0});
  std::sort(nodes.begin(), nodes.end(), [&](NodeIndex a, NodeIndex b) {
    return graph.key_of(a) < graph.key_of(b);
  });
  std::vector<std::size_t> pos_of(n);
  std::size_t max_cls = 0;
  for (std::size_t p = 0; p < n; ++p) {
    pos_of[nodes[p]] = p;
    max_cls = std::max<std::size_t>(max_cls, graph.key_of(nodes[p]).cls.value());
  }

  const std::vector<bool> never_migrate =
      hints.never_migrate_mask(n == 0 ? 0 : max_cls + 1);

  PositionUnionFind uf(n);

  // 1. Collapse the client side: every component that is statically
  //    never-migrate or dynamically pinned joins one anchor. MINCUT seeds the
  //    client partition with all pinned components anyway, so this preserves
  //    semantics while removing nodes and intra-client edges. The anchor is
  //    the smallest such key (position order), so it roots the merged set.
  std::size_t anchor = n;
  for (std::size_t p = 0; p < n; ++p) {
    const graph::ComponentKey& key = graph.key_of(nodes[p]);
    const bool pinned = graph.node_at(nodes[p]).pinned;
    if (!pinned && !never_migrate[key.cls.value()]) continue;
    if (anchor == n) {
      anchor = p;
    } else {
      uf.unite(anchor, p);
    }
  }

  // 2. Zero-benefit merges between unpinned class-granularity components.
  for (const auto& [leaf, partner] : hints.merge_candidates) {
    const NodeIndex ia = graph.index_of(graph::ComponentKey{leaf});
    const NodeIndex ib = graph.index_of(graph::ComponentKey{partner});
    if (ia == graph::ExecGraph::npos || ib == graph::ExecGraph::npos) continue;
    if (graph.node_at(ia).pinned || graph.node_at(ib).pinned) continue;
    uf.unite(pos_of[ia], pos_of[ib]);
  }

  for (std::size_t p = 0; p < n; ++p) {
    const graph::ComponentKey& key = graph.key_of(nodes[p]);
    const graph::ComponentKey& rep = graph.key_of(nodes[uf.find(p)]);
    out.members[rep].push_back(key);
    const graph::NodeInfo& info = graph.node_at(nodes[p]);
    auto& merged = out.graph.node(rep);
    merged.mem_bytes += info.mem_bytes;
    merged.peak_mem_bytes += info.peak_mem_bytes;
    merged.exec_self_time += info.exec_self_time;
    merged.live_objects += info.live_objects;
    merged.pinned = merged.pinned || info.pinned;
  }

  // Accumulate surviving edges keyed by (root-position) pair, then emit in
  // position order — deterministic and hash-free.
  std::map<std::pair<std::size_t, std::size_t>, graph::EdgeInfo> merged_edges;
  for (graph::ExecGraph::EdgeSlot s = 0; s < graph.edge_count(); ++s) {
    const auto [a, b] = graph.edge_ends(s);
    std::size_t ra = uf.find(pos_of[a]);
    std::size_t rb = uf.find(pos_of[b]);
    if (ra == rb) continue;  // interaction inside a merged group
    if (rb < ra) std::swap(ra, rb);
    const graph::EdgeInfo& info = graph.edge_at(s);
    auto& e = merged_edges[{ra, rb}];
    e.invocations += info.invocations;
    e.accesses += info.accesses;
    e.bytes += info.bytes;
  }
  for (const auto& [pair, info] : merged_edges) {
    out.graph.set_edge(graph.key_of(nodes[pair.first]),
                       graph.key_of(nodes[pair.second]), info);
  }
  return out;
}

SimDuration predicted_comm_time(const graph::Candidate& cand,
                                const netsim::LinkParams& link) {
  // Each cut-crossing interaction is a synchronous message exchange: a full
  // null-message RTT plus the historical payload over the link bandwidth.
  const double rtt_s = sim_to_seconds(link.null_rtt);
  const double serialization_s =
      static_cast<double>(cand.cut_bytes) * 8.0 / link.bandwidth_bps;
  const double total_s =
      static_cast<double>(cand.cut_interactions()) * rtt_s + serialization_s;
  return static_cast<SimDuration>(total_s * 1e9);
}

SimDuration predicted_offload_time(const graph::Candidate& cand,
                                   SimDuration total_self_time,
                                   const PartitionRequest& req) {
  const SimDuration client_self = total_self_time - cand.offload_self_time;
  const double client_s =
      sim_to_seconds(client_self) / req.client_speed;
  const double surrogate_s = sim_to_seconds(cand.offload_self_time) /
                             (req.client_speed * req.surrogate_speedup);
  const double mig_s = static_cast<double>(cand.offload_mem_bytes) * 8.0 /
                           req.link.bandwidth_bps +
                       sim_to_seconds(req.link.null_rtt);
  return static_cast<SimDuration>((client_s + surrogate_s) * 1e9) +
         predicted_comm_time(cand, req.link) +
         static_cast<SimDuration>(mig_s * 1e9);
}

PartitionDecision decide_partitioning(const graph::ExecGraph& graph,
                                      const PartitionRequest& req) {
  const auto wall_start = std::chrono::steady_clock::now();

  PartitionDecision decision;

  // Pre-contract under static hints when provided: MINCUT then runs on the
  // smaller graph, and cuts that separate statically-inseparable components
  // are unrepresentable by construction.
  ContractedGraph contracted;
  const graph::ExecGraph* cut_graph = &graph;
  if (req.hints != nullptr && !req.hints->empty()) {
    contracted = contract_with_hints(graph, *req.hints);
    cut_graph = &contracted.graph;
    decision.hints_applied = true;
  }
  decision.mincut_nodes = cut_graph->node_count();
  decision.mincut_edges = cut_graph->edge_count();

  const SimDuration total_self = cut_graph->total_self_time();
  decision.predicted_original_time = static_cast<SimDuration>(
      sim_to_seconds(total_self) / req.client_speed * 1e9);

  // Post-reconcile gravity: map each cut-graph node to the bytes of
  // disconnected-era rebuilt state it stands for (folded members included
  // when hints contracted the graph). Candidates containing gravity bytes
  // get a per-byte credit against their cut cost so the rebuilt working
  // tree wins over a cheaper-to-cut sliver. Empty map = zero bias and the
  // exact pre-existing selection arithmetic.
  // std::map keys the sums in component order so the floating-point
  // accumulation below is independent of hash/bucket layout.
  std::map<graph::ComponentKey, double> gravity_bytes;
  if (req.reoffload_gravity != nullptr && !req.reoffload_gravity->empty() &&
      req.gravity_credit_per_byte > 0.0) {
    for (graph::ExecGraph::NodeIndex i = 0; i < graph.node_count(); ++i) {
      const graph::ComponentKey& key = graph.key_of(i);
      if (req.reoffload_gravity->count(key) == 0) continue;
      gravity_bytes[key] +=
          static_cast<double>(graph.node_at(i).mem_bytes);
    }
    if (decision.hints_applied && !gravity_bytes.empty()) {
      std::map<graph::ComponentKey, double> folded;
      for (const auto& [rep, members] : contracted.members) {
        double sum = 0.0;
        for (const auto& member : members) {
          const auto it = gravity_bytes.find(member);
          if (it != gravity_bytes.end()) sum += it->second;
        }
        if (sum > 0.0) folded.emplace(rep, sum);
      }
      gravity_bytes = std::move(folded);
    }
  }
  const auto gravity_in = [&](const graph::Candidate& cand) {
    double sum = 0.0;
    for (const auto& [key, bytes] : gravity_bytes) {
      if (cand.offload.count(key) != 0) sum += bytes;
    }
    return sum;
  };

  // The candidate series streams through the incremental visitor: one running
  // candidate, O(deg) updates per step, and a copy taken only when a
  // candidate is actually selected.
  if (req.objective == Objective::free_memory) {
    double best_cost = std::numeric_limits<double>::infinity();
    graph::modified_mincut_visit(
        *cut_graph, req.weight, [&](const graph::Candidate& cand) {
          ++decision.candidates_total;
          if (cand.offload_mem_bytes < req.min_free_bytes) return;
          ++decision.candidates_feasible;
          double cost = cand.cut_weight;
          if (!gravity_bytes.empty()) {
            cost -= req.gravity_credit_per_byte * gravity_in(cand);
          }
          if (cost < best_cost) {
            best_cost = cost;
            decision.selected = cand;
            decision.offload = true;
          }
        });
    if (decision.offload && req.history_duration > 0) {
      decision.predicted_bandwidth_bps =
          static_cast<double>(decision.selected.cut_bytes) * 8.0 /
          sim_to_seconds(req.history_duration);
    }
  } else {
    SimDuration best_time = decision.predicted_original_time;
    SimDuration best_any = std::numeric_limits<SimDuration>::max();
    graph::modified_mincut_visit(
        *cut_graph, req.weight, [&](const graph::Candidate& cand) {
          ++decision.candidates_total;
          if (cand.offload_self_time <= 0) return;
          const SimDuration t = predicted_offload_time(cand, total_self, req);
          best_any = std::min(best_any, t);
          if (t < best_time) {
            ++decision.candidates_feasible;
            best_time = t;
            decision.selected = cand;
            decision.offload = true;
          }
        });
    // When declining, still report the best candidate's prediction — the
    // paper reports Biomer's "best partitioning was predicted to take 790
    // seconds while the unpartitioned application took 750".
    if (decision.offload) {
      decision.predicted_offloaded_time = best_time;
    } else {
      decision.predicted_offloaded_time =
          best_any == std::numeric_limits<SimDuration>::max()
              ? decision.predicted_original_time
              : best_any;
    }
  }

  // A contracted representative stands for every component folded into it;
  // expand the selection back to monitor-visible keys so the platform can
  // gather the right objects.
  if (decision.offload && decision.hints_applied) {
    std::unordered_set<graph::ComponentKey> expanded;
    for (const auto& comp : decision.selected.offload) {
      const auto it = contracted.members.find(comp);
      if (it == contracted.members.end()) {
        expanded.insert(comp);
        continue;
      }
      expanded.insert(it->second.begin(), it->second.end());
    }
    decision.selected.offload = std::move(expanded);
  }

  decision.compute_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return decision;
}

}  // namespace aide::partition
