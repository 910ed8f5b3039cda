#include "graph/mincut.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace aide::graph {

namespace {

using NodeIndex = ExecGraph::NodeIndex;

// Deterministically ordered component index: algorithms iterate components in
// sorted-key order so results do not depend on storage order. Positions are
// resolved through the graph's interning table (no key comparisons after the
// initial sort) and edges land in per-position adjacency lists, sorted by
// neighbor position so weight accumulations visit neighbors in the same
// ascending order the old dense-matrix loops did.
struct SortedIndex {
  std::vector<ComponentKey> keys;   // position -> key (ascending)
  std::vector<NodeIndex> nodes;     // position -> graph node index
  std::vector<std::size_t> pos_of;  // graph node index -> position

  struct Arc {
    std::size_t pos;            // neighbor position
    double weight;              // policy weight of the shared edge
    const EdgeInfo* info;       // shared edge record
  };
  std::vector<std::vector<Arc>> adj;

  [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
};

SortedIndex build_index(const ExecGraph& graph, const EdgeWeightFn& weight) {
  SortedIndex ix;
  const std::size_t n = graph.node_count();
  ix.nodes.resize(n);
  std::iota(ix.nodes.begin(), ix.nodes.end(), NodeIndex{0});
  std::sort(ix.nodes.begin(), ix.nodes.end(), [&](NodeIndex a, NodeIndex b) {
    return graph.key_of(a) < graph.key_of(b);
  });

  ix.keys.resize(n);
  ix.pos_of.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    ix.keys[p] = graph.key_of(ix.nodes[p]);
    ix.pos_of[ix.nodes[p]] = p;
  }

  ix.adj.assign(n, {});
  for (ExecGraph::EdgeSlot s = 0; s < graph.edge_count(); ++s) {
    const auto [a, b] = graph.edge_ends(s);
    const EdgeInfo& info = graph.edge_at(s);
    const double wt = weight(info);
    const std::size_t pa = ix.pos_of[a];
    const std::size_t pb = ix.pos_of[b];
    ix.adj[pa].push_back(SortedIndex::Arc{pb, wt, &info});
    ix.adj[pb].push_back(SortedIndex::Arc{pa, wt, &info});
  }
  for (auto& arcs : ix.adj) {
    std::sort(arcs.begin(), arcs.end(),
              [](const SortedIndex::Arc& x, const SortedIndex::Arc& y) {
                return x.pos < y.pos;
              });
  }
  return ix;
}

}  // namespace

void modified_mincut_visit(
    const ExecGraph& graph, const EdgeWeightFn& weight,
    const std::function<void(const Candidate&)>& visit) {
  const SortedIndex ix = build_index(graph, weight);
  const std::size_t n = ix.size();
  if (n < 2) return;

  // in_client[i]: component i is in the client partition (partition "A").
  std::vector<bool> in_client(n, false);
  std::size_t client_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (graph.node_at(ix.nodes[i]).pinned) {
      in_client[i] = true;
      ++client_count;
    }
  }
  if (client_count == 0) {
    // No pinned anchor: keep the largest-memory component on the client.
    std::size_t anchor = 0;
    std::int64_t best_mem = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < n; ++i) {
      const auto mem = graph.node_at(ix.nodes[i]).mem_bytes;
      if (mem > best_mem) {
        best_mem = mem;
        anchor = i;
      }
    }
    in_client[anchor] = true;
    client_count = 1;
  }
  if (client_count == n) return;  // everything pinned: nothing to offload

  // conn[i]: total policy weight between component i (in B) and partition A.
  // Neighbors are visited position-ascending, matching the dense j-loop of
  // the reference implementation (skipped non-edges contribute exactly 0).
  std::vector<double> conn(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (in_client[i]) continue;
    for (const auto& arc : ix.adj[i]) {
      if (in_client[arc.pos]) conn[i] += arc.weight;
    }
  }

  // The ONE running candidate: start from "offload everything offloadable"
  // and peel components off as they move to the client.
  Candidate cur;
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_client[i]) {
      cur.offload.insert(ix.keys[i]);
      const NodeInfo& node = graph.node_at(ix.nodes[i]);
      cur.offload_mem_bytes += node.mem_bytes;
      cur.offload_self_time += node.exec_self_time;
    }
  }
  for (ExecGraph::EdgeSlot s = 0; s < graph.edge_count(); ++s) {
    const auto [a, b] = graph.edge_ends(s);
    if (in_client[ix.pos_of[a]] != in_client[ix.pos_of[b]]) {
      const EdgeInfo& e = graph.edge_at(s);
      cur.cut_weight += weight(e);
      cur.cut_bytes += e.bytes;
      cur.cut_invocations += e.invocations;
      cur.cut_accesses += e.accesses;
    }
  }
  visit(cur);

  // Move the most-connected component of B into A, one at a time, updating
  // the candidate's cut statistics with O(deg(best)) deltas per move.
  while (n - client_count > 1) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (in_client[i]) continue;
      if (best == n || conn[i] > conn[best]) best = i;
    }
    assert(best < n);

    // Edges from `best` to A stop crossing the cut; edges to B start.
    for (const auto& arc : ix.adj[best]) {
      const EdgeInfo& e = *arc.info;
      if (in_client[arc.pos]) {
        cur.cut_weight -= arc.weight;
        cur.cut_bytes -= e.bytes;
        cur.cut_invocations -= e.invocations;
        cur.cut_accesses -= e.accesses;
      } else {
        cur.cut_weight += arc.weight;
        cur.cut_bytes += e.bytes;
        cur.cut_invocations += e.invocations;
        cur.cut_accesses += e.accesses;
        conn[arc.pos] += arc.weight;
      }
    }
    const NodeInfo& node = graph.node_at(ix.nodes[best]);
    cur.offload_mem_bytes -= node.mem_bytes;
    cur.offload_self_time -= node.exec_self_time;
    cur.offload.erase(ix.keys[best]);
    in_client[best] = true;
    ++client_count;
    visit(cur);
  }
}

std::vector<Candidate> modified_mincut(const ExecGraph& graph,
                                       const EdgeWeightFn& weight) {
  std::vector<Candidate> candidates;
  modified_mincut_visit(graph, weight,
                        [&](const Candidate& c) { candidates.push_back(c); });
  return candidates;
}

GlobalCut stoer_wagner_min_cut(const ExecGraph& graph,
                               const EdgeWeightFn& weight) {
  const SortedIndex ix = build_index(graph, weight);
  const std::size_t n = ix.size();
  if (n < 2) {
    throw std::invalid_argument("stoer_wagner_min_cut: need >= 2 components");
  }

  // Supernode adjacency: adjw[u][v] = contracted weight between supernodes.
  // Contraction folds t's row into s's with one binary add per neighbor —
  // the same additions the dense matrix performed, without touching the
  // (mostly zero) rest of the row.
  std::vector<std::unordered_map<std::size_t, double>> adjw(n);
  for (std::size_t i = 0; i < n; ++i) {
    adjw[i].reserve(ix.adj[i].size());
    for (const auto& arc : ix.adj[i]) adjw[i][arc.pos] += arc.weight;
  }

  // merged[i] lists the original vertex indices contracted into supernode i.
  std::vector<std::vector<std::size_t>> merged(n);
  for (std::size_t i = 0; i < n; ++i) merged[i] = {i};
  std::vector<bool> alive(n, true);
  std::size_t alive_count = n;

  double best_weight = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_side;

  // Per-phase buffers, reused across phases.
  std::vector<double> conn(n);
  std::vector<bool> added(n);
  std::vector<std::size_t> order;
  order.reserve(n);

  while (alive_count > 1) {
    // Maximum-adjacency ordering ("minimum cut phase"). Vertices are scanned
    // position-ascending, the same order the reference's erase-stable active
    // vector produced.
    std::fill(conn.begin(), conn.end(), 0.0);
    std::fill(added.begin(), added.end(), false);
    order.clear();

    for (std::size_t step = 0; step < alive_count; ++step) {
      std::size_t sel = n;
      for (std::size_t v = 0; v < n; ++v) {
        if (!alive[v] || added[v]) continue;
        if (sel == n || conn[v] > conn[sel]) sel = v;
      }
      added[sel] = true;
      order.push_back(sel);
      for (const auto& [v, wt] : adjw[sel]) {
        if (alive[v] && !added[v]) conn[v] += wt;
      }
    }

    const std::size_t t = order.back();
    const std::size_t s = order[order.size() - 2];
    const double cut_of_phase = conn[t];
    if (cut_of_phase < best_weight) {
      best_weight = cut_of_phase;
      best_side = merged[t];
    }

    // Contract t into s.
    for (const auto& [v, wt] : adjw[t]) {
      if (!alive[v] || v == s) continue;
      adjw[s][v] += wt;
      adjw[v][s] = adjw[s][v];
      adjw[v].erase(t);
    }
    adjw[s].erase(t);
    adjw[t].clear();
    merged[s].insert(merged[s].end(), merged[t].begin(), merged[t].end());
    merged[t].clear();
    alive[t] = false;
    --alive_count;
  }

  GlobalCut cut;
  cut.weight = best_weight;
  for (const auto v : best_side) cut.side.insert(ix.keys[v]);
  return cut;
}

}  // namespace aide::graph
