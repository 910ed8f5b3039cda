// Differential tests for the optimized partitioning algorithms.
//
// The incremental modified_mincut (O(deg) cut deltas, one running offload
// set) and the adjacency-list Stoer-Wagner in src/graph/mincut.cpp must be
// observationally identical to the retained dense-matrix reference
// implementations in tests/mincut_reference.cpp: same candidate sequence
// (offload sets, cut statistics, memory/self-time accounting) and same global
// cut weight/side, on randomized graphs from 50 to 500 nodes with mixed
// pinning and object-granularity components. Stoer-Wagner is additionally
// cross-checked against the exponential brute-force oracle at n <= 14.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "graph/mincut.hpp"
#include "tests/mincut_reference.hpp"

namespace aide::graph {
namespace {

ComponentKey cls(std::uint32_t id) { return ComponentKey{ClassId{id}}; }

// Random graph with node stats, sparse edges, a pinned subset, and a few
// object-granularity components — the shapes the Array enhancement produces.
ExecGraph random_rich_graph(Rng& rng, std::size_t n, double edge_prob,
                            double pin_prob) {
  ExecGraph g;
  std::vector<ComponentKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ComponentKey key = cls(static_cast<std::uint32_t>(i));
    if (rng.next_below(8) == 0) {
      key.object = ObjectId{1000 + i};  // object-granularity component
    }
    keys.push_back(key);
    auto& node = g.node(key);
    node.mem_bytes = static_cast<std::int64_t>(rng.next_below(1 << 20));
    node.exec_self_time = static_cast<SimDuration>(rng.next_below(1'000'000));
    node.live_objects = static_cast<std::int64_t>(rng.next_below(50));
    if (rng.next_double() < pin_prob) node.pinned = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.next_double() >= edge_prob) continue;
      EdgeInfo info;
      info.invocations = rng.next_below(20) + 1;
      info.accesses = rng.next_below(30);
      info.bytes = rng.next_below(10000);
      g.set_edge(keys[i], keys[j], info);
    }
  }
  return g;
}

void expect_candidates_equal(const std::vector<Candidate>& got,
                             const std::vector<Candidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE("candidate " + std::to_string(k));
    EXPECT_EQ(got[k].offload, want[k].offload);
    EXPECT_NEAR(got[k].cut_weight, want[k].cut_weight,
                1e-6 * (1.0 + std::abs(want[k].cut_weight)));
    EXPECT_EQ(got[k].cut_bytes, want[k].cut_bytes);
    EXPECT_EQ(got[k].cut_invocations, want[k].cut_invocations);
    EXPECT_EQ(got[k].cut_accesses, want[k].cut_accesses);
    EXPECT_EQ(got[k].offload_mem_bytes, want[k].offload_mem_bytes);
    EXPECT_EQ(got[k].offload_self_time, want[k].offload_self_time);
  }
}

TEST(MincutDifferentialTest, ModifiedMincutMatchesReference) {
  for (const std::uint64_t seed : {11u, 23u, 47u, 101u, 211u}) {
    for (const std::size_t n : {50u, 120u, 250u, 500u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " n=" + std::to_string(n));
      Rng rng(seed * 1000 + n);
      const ExecGraph g =
          random_rich_graph(rng, n, /*edge_prob=*/6.0 / static_cast<double>(n),
                            /*pin_prob=*/0.1);
      const auto got = modified_mincut(g);
      const auto want = reference::modified_mincut(g);
      expect_candidates_equal(got, want);
    }
  }
}

TEST(MincutDifferentialTest, ModifiedMincutMatchesReferenceDense) {
  // Dense small graphs stress tie-breaking: many equal-connectivity moves.
  for (const std::uint64_t seed : {3u, 5u, 7u, 13u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const ExecGraph g = random_rich_graph(rng, 60, /*edge_prob=*/0.5,
                                          /*pin_prob=*/0.05);
    expect_candidates_equal(modified_mincut(g),
                            reference::modified_mincut(g));
  }
}

TEST(MincutDifferentialTest, VisitStreamsTheSameSeries) {
  Rng rng(99);
  const ExecGraph g = random_rich_graph(rng, 150, 0.05, 0.1);
  const auto want = modified_mincut(g);
  std::size_t k = 0;
  modified_mincut_visit(g, EdgeWeightFn{}, [&](const Candidate& cand) {
    ASSERT_LT(k, want.size());
    EXPECT_EQ(cand.offload, want[k].offload);
    EXPECT_DOUBLE_EQ(cand.cut_weight, want[k].cut_weight);
    EXPECT_EQ(cand.cut_bytes, want[k].cut_bytes);
    ++k;
  });
  EXPECT_EQ(k, want.size());
}

TEST(MincutDifferentialTest, StoerWagnerMatchesReference) {
  for (const std::uint64_t seed : {17u, 31u, 59u, 83u}) {
    for (const std::size_t n : {50u, 120u, 250u, 500u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " n=" + std::to_string(n));
      Rng rng(seed * 1000 + n);
      const ExecGraph g =
          random_rich_graph(rng, n, 6.0 / static_cast<double>(n), 0.0);
      const auto got = stoer_wagner_min_cut(g);
      const auto want = reference::stoer_wagner_min_cut(g);
      EXPECT_NEAR(got.weight, want.weight,
                  1e-6 * (1.0 + std::abs(want.weight)));
      EXPECT_EQ(got.side, want.side);
    }
  }
}

TEST(MincutDifferentialTest, StoerWagnerMatchesBruteForceSmall) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::size_t n = 3 + seed % 12;  // 3..14
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n));
    Rng rng(seed);
    const ExecGraph g = random_rich_graph(rng, n, 0.6, 0.0);
    const auto sw = stoer_wagner_min_cut(g);
    const auto bf = reference::brute_force_min_cut(g);
    EXPECT_NEAR(sw.weight, bf.weight, 1e-6 * (1.0 + std::abs(bf.weight)));
  }
}

TEST(MincutDifferentialTest, RemoveComponentsMatchesRebuild) {
  // remove_components (one-pass compaction) must leave a graph equivalent to
  // rebuilding from the surviving nodes/edges.
  Rng rng(7);
  ExecGraph g = random_rich_graph(rng, 80, 0.1, 0.1);
  std::unordered_set<ComponentKey> dead;
  for (const auto& [key, info] : g.nodes()) {
    if (rng.next_below(4) == 0) dead.insert(key);
  }

  ExecGraph rebuilt;
  for (const auto& [key, info] : g.nodes()) {
    if (dead.contains(key)) continue;
    rebuilt.node(key) = info;
  }
  for (const auto& [ekey, einfo] : g.edges()) {
    if (dead.contains(ekey.a) || dead.contains(ekey.b)) continue;
    rebuilt.set_edge(ekey.a, ekey.b, einfo);
  }

  g.remove_components(dead);
  ASSERT_EQ(g.node_count(), rebuilt.node_count());
  ASSERT_EQ(g.edge_count(), rebuilt.edge_count());
  for (const auto& [key, info] : rebuilt.nodes()) {
    const auto* node = g.find_node(key);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->mem_bytes, info.mem_bytes);
    EXPECT_EQ(node->live_objects, info.live_objects);
    EXPECT_EQ(node->pinned, info.pinned);
  }
  for (const auto& [ekey, einfo] : rebuilt.edges()) {
    const auto* e = g.find_edge(ekey.a, ekey.b);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->invocations, einfo.invocations);
    EXPECT_EQ(e->accesses, einfo.accesses);
    EXPECT_EQ(e->bytes, einfo.bytes);
  }
  // And the partitioning pipeline agrees end-to-end on the compacted graph.
  expect_candidates_equal(modified_mincut(g), reference::modified_mincut(g));
}

}  // namespace
}  // namespace aide::graph
