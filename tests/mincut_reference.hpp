// Reference partitioning implementations (pre-optimization), compiled only
// into the tests and benches that compare against them.
//
// These are the original dense-matrix O(V^2)/O(V^3) algorithms, retained
// verbatim for two purposes:
//   * the randomized differential test asserts the optimized incremental
//     modified_mincut and adjacency-list Stoer-Wagner in src/graph/mincut.cpp
//     produce identical candidate sequences and cut weights;
//   * bench_graph_hotpath measures them live in the same binary as the
//     baseline columns of BENCH_hotpath.json.
// Beside them, an exponential exact minimum cut checks the optimized
// Stoer-Wagner on small graphs.
//
// Do not optimize this file; its value is being the slow-but-obviously-
// correct oracle.
#pragma once

#include "graph/mincut.hpp"

namespace aide::graph::reference {

// Original candidate-series heuristic: O(E) edge rescan per candidate plus a
// full offload-set copy per snapshot.
[[nodiscard]] std::vector<Candidate> modified_mincut(
    const ExecGraph& graph, const EdgeWeightFn& weight = {});

// Original Stoer-Wagner: dense weight matrix, per-phase allocations and
// std::find-based erase of the contracted vertex.
[[nodiscard]] GlobalCut stoer_wagner_min_cut(const ExecGraph& graph,
                                             const EdgeWeightFn& weight = {});

// Exponential-time exact minimum cut by enumerating every bipartition
// (2 <= n <= 20 components).
[[nodiscard]] GlobalCut brute_force_min_cut(const ExecGraph& graph,
                                            const EdgeWeightFn& weight = {});

}  // namespace aide::graph::reference
