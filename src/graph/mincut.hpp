// Graph-partitioning algorithms (paper section 3.3).
//
// Finding the best partitioning of an execution graph is NP-complete, so the
// paper derives a heuristic from the Stoer–Wagner MINCUT algorithm: seed the
// client partition with all components that cannot be offloaded (classes with
// native methods), then repeatedly move the remaining component with the
// greatest connectivity to the client partition, recording every intermediate
// partitioning as a candidate. The partitioning policy then evaluates all
// candidates and selects the one that best satisfies it.
//
// Every cut here is two-way, the client against one surrogate: the paper's
// prototype "performs a single offloading from a client device to a single
// surrogate server". This module provides:
//   * modified_mincut()      — the paper's candidate-series heuristic (and
//                              its streaming form, modified_mincut_visit())
//   * stoer_wagner_min_cut() — the classic global minimum cut (baseline and
//                              ablation comparator)
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/simclock.hpp"
#include "graph/exec_graph.hpp"

namespace aide::graph {

// Scalar weight assigned to an edge when partitioning. The default models the
// cost of remote interactions: each crossing interaction pays a fixed
// per-message overhead plus its payload bytes.
struct EdgeWeightFn {
  double bytes_factor = 1.0;
  double per_interaction_bytes = 64.0;

  [[nodiscard]] double operator()(const EdgeInfo& e) const noexcept {
    return bytes_factor * static_cast<double>(e.bytes) +
           per_interaction_bytes * static_cast<double>(e.interactions());
  }
};

// One candidate partitioning: `offload` is the set of components that would
// move to the surrogate; everything else stays on the client.
struct Candidate {
  std::unordered_set<ComponentKey> offload;
  double cut_weight = 0.0;             // policy edge weight across the cut
  std::uint64_t cut_bytes = 0;         // historical bytes across the cut
  std::uint64_t cut_invocations = 0;   // invocations across the cut
  std::uint64_t cut_accesses = 0;      // data accesses across the cut
  std::int64_t offload_mem_bytes = 0;  // client heap freed if selected
  SimDuration offload_self_time = 0;   // CPU self-time moved to surrogate

  [[nodiscard]] std::uint64_t cut_interactions() const noexcept {
    return cut_invocations + cut_accesses;
  }
};

// The paper's modified MINCUT heuristic. Returns the full series of
// intermediate partitionings, ordered from "offload everything offloadable"
// down to "offload a single component". Components marked pinned in the graph
// are never offloaded. If the graph has no pinned component, the client
// partition is seeded with the component of greatest total memory (some
// component must anchor the device or the heuristic has no starting point).
[[nodiscard]] std::vector<Candidate> modified_mincut(
    const ExecGraph& graph, const EdgeWeightFn& weight = {});

// Streaming form of modified_mincut: maintains ONE running Candidate and
// invokes `visit` once per intermediate partitioning (same sequence as
// modified_mincut returns), updating the offload set and cut statistics with
// O(deg(moved)) deltas per step instead of an O(E) rescan. Policies that only
// need to scan the series (decide_partitioning) use this to avoid
// materializing and copying every candidate. The Candidate reference is only
// valid during the callback; copy it to keep it.
void modified_mincut_visit(const ExecGraph& graph, const EdgeWeightFn& weight,
                           const std::function<void(const Candidate&)>& visit);

// A global minimum cut (ignores pinning): returns the lighter-side vertex set
// and the cut weight. Used as the "plain MINCUT" baseline the paper argues
// against ("it may simply remove a single component").
struct GlobalCut {
  std::unordered_set<ComponentKey> side;
  double weight = 0.0;
};
[[nodiscard]] GlobalCut stoer_wagner_min_cut(const ExecGraph& graph,
                                             const EdgeWeightFn& weight = {});

}  // namespace aide::graph
