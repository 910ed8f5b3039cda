#include "tests/mincut_reference.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <stdexcept>

namespace aide::graph::reference {

namespace {

// Deterministically ordered component index: algorithms iterate components in
// sorted order so results do not depend on hash-map iteration order.
struct Indexed {
  std::vector<ComponentKey> keys;      // index -> key
  std::vector<std::vector<double>> w;  // dense weight matrix

  [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
};

Indexed build_index(const ExecGraph& graph, const EdgeWeightFn& weight) {
  Indexed ix;
  ix.keys.reserve(graph.node_count());
  for (const auto& [key, info] : graph.nodes()) ix.keys.push_back(key);
  std::sort(ix.keys.begin(), ix.keys.end());

  std::map<ComponentKey, std::size_t> pos;
  for (std::size_t i = 0; i < ix.keys.size(); ++i) pos[ix.keys[i]] = i;

  ix.w.assign(ix.keys.size(), std::vector<double>(ix.keys.size(), 0.0));
  for (const auto& [ekey, einfo] : graph.edges()) {
    const auto ia = pos.find(ekey.a);
    const auto ib = pos.find(ekey.b);
    if (ia == pos.end() || ib == pos.end()) continue;
    const double wt = weight(einfo);
    ix.w[ia->second][ib->second] += wt;
    ix.w[ib->second][ia->second] += wt;
  }
  return ix;
}

}  // namespace

std::vector<Candidate> modified_mincut(const ExecGraph& graph,
                                       const EdgeWeightFn& weight) {
  const Indexed ix = build_index(graph, weight);
  const std::size_t n = ix.size();
  if (n < 2) return {};

  // in_client[i]: component i is in the client partition (partition "A").
  std::vector<bool> in_client(n, false);
  std::size_t client_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (graph.find_node(ix.keys[i])->pinned) {
      in_client[i] = true;
      ++client_count;
    }
  }
  if (client_count == 0) {
    // No pinned anchor: keep the largest-memory component on the client.
    std::size_t anchor = 0;
    std::int64_t best_mem = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < n; ++i) {
      const auto mem = graph.find_node(ix.keys[i])->mem_bytes;
      if (mem > best_mem) {
        best_mem = mem;
        anchor = i;
      }
    }
    in_client[anchor] = true;
    client_count = 1;
  }
  if (client_count == n) return {};  // everything pinned: nothing to offload

  // conn[i]: total policy weight between component i (in B) and partition A.
  std::vector<double> conn(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (in_client[i]) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (in_client[j]) conn[i] += ix.w[i][j];
    }
  }

  // Full cut-statistics rescan for the current (A, B) split.
  auto cut_stats = [&](Candidate& cand) {
    cand.cut_weight = 0.0;
    cand.cut_bytes = 0;
    cand.cut_invocations = 0;
    cand.cut_accesses = 0;
    for (const auto& [ekey, einfo] : graph.edges()) {
      const bool a_off = cand.offload.contains(ekey.a);
      const bool b_off = cand.offload.contains(ekey.b);
      if (a_off != b_off) {
        cand.cut_weight += weight(einfo);
        cand.cut_bytes += einfo.bytes;
        cand.cut_invocations += einfo.invocations;
        cand.cut_accesses += einfo.accesses;
      }
    }
  };

  auto snapshot = [&]() {
    Candidate cand;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_client[i]) {
        const ComponentKey& key = ix.keys[i];
        cand.offload.insert(key);
        const NodeInfo* node = graph.find_node(key);
        cand.offload_mem_bytes += node->mem_bytes;
        cand.offload_self_time += node->exec_self_time;
      }
    }
    cut_stats(cand);
    return cand;
  };

  std::vector<Candidate> candidates;
  candidates.reserve(n - client_count);

  // Candidate 0: offload every non-pinned component.
  candidates.push_back(snapshot());

  // Move the most-connected component of B into A, one at a time, recording
  // each intermediate partitioning, until B holds a single component.
  while (n - client_count > 1) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (in_client[i]) continue;
      if (best == n || conn[i] > conn[best]) best = i;
    }
    assert(best < n);
    in_client[best] = true;
    ++client_count;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_client[i]) conn[i] += ix.w[i][best];
    }
    candidates.push_back(snapshot());
  }
  return candidates;
}

GlobalCut stoer_wagner_min_cut(const ExecGraph& graph,
                               const EdgeWeightFn& weight) {
  Indexed ix = build_index(graph, weight);
  const std::size_t n = ix.size();
  if (n < 2) {
    throw std::invalid_argument("stoer_wagner_min_cut: need >= 2 components");
  }

  // merged[i] lists the original vertex indices contracted into supernode i.
  std::vector<std::vector<std::size_t>> merged(n);
  for (std::size_t i = 0; i < n; ++i) merged[i] = {i};
  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;

  double best_weight = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_side;

  while (active.size() > 1) {
    // Maximum-adjacency ordering ("minimum cut phase").
    std::vector<double> conn(n, 0.0);
    std::vector<bool> added(n, false);
    std::vector<std::size_t> order;
    order.reserve(active.size());

    for (std::size_t step = 0; step < active.size(); ++step) {
      std::size_t sel = n;
      for (const auto v : active) {
        if (added[v]) continue;
        if (sel == n || conn[v] > conn[sel]) sel = v;
      }
      added[sel] = true;
      order.push_back(sel);
      for (const auto v : active) {
        if (!added[v]) conn[v] += ix.w[sel][v];
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
    for (const auto v : active) {
      if (v == s || v == t) continue;
      ix.w[s][v] += ix.w[t][v];
      ix.w[v][s] = ix.w[s][v];
    }
    merged[s].insert(merged[s].end(), merged[t].begin(), merged[t].end());
    active.erase(std::find(active.begin(), active.end(), t));
  }

  GlobalCut cut;
  cut.weight = best_weight;
  for (const auto v : best_side) cut.side.insert(ix.keys[v]);
  return cut;
}

GlobalCut brute_force_min_cut(const ExecGraph& graph,
                              const EdgeWeightFn& weight) {
  const Indexed ix = build_index(graph, weight);
  const std::size_t n = ix.size();
  if (n < 2 || n > 20) {
    throw std::invalid_argument("brute_force_min_cut: need 2 <= n <= 20");
  }

  double best_weight = std::numeric_limits<double>::infinity();
  std::uint32_t best_mask = 0;

  // Fix vertex 0 on the "outside" to enumerate each cut exactly once.
  const std::uint32_t limit = 1u << (n - 1);
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    double cut_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool side_i = (i > 0) && ((mask >> (i - 1)) & 1u);
      for (std::size_t j = i + 1; j < n; ++j) {
        const bool side_j = (j > 0) && ((mask >> (j - 1)) & 1u);
        if (side_i != side_j) cut_w += ix.w[i][j];
      }
    }
    if (cut_w < best_weight) {
      best_weight = cut_w;
      best_mask = mask;
    }
  }

  GlobalCut cut;
  cut.weight = best_weight;
  for (std::size_t i = 1; i < n; ++i) {
    if ((best_mask >> (i - 1)) & 1u) cut.side.insert(ix.keys[i]);
  }
  return cut;
}

}  // namespace aide::graph::reference
