// Tests for the partitioning algorithms: Stoer–Wagner global minimum cut
// (validated against a brute-force oracle on random graphs), and the paper's
// modified MINCUT candidate-series heuristic (pinning, candidate ordering,
// cut statistics, memory accounting).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/mincut.hpp"
#include "tests/mincut_reference.hpp"

namespace aide::graph {
namespace {

ComponentKey cls(std::uint32_t id) { return ComponentKey{ClassId{id}}; }

ExecGraph random_graph(Rng& rng, std::size_t n, double edge_prob) {
  ExecGraph g;
  for (std::size_t i = 0; i < n; ++i) g.node(cls(static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.next_double() < edge_prob) {
        EdgeInfo info;
        info.invocations = rng.next_below(20) + 1;
        info.bytes = rng.next_below(10000);
        g.set_edge(cls(static_cast<std::uint32_t>(i)),
                   cls(static_cast<std::uint32_t>(j)), info);
      }
    }
  }
  return g;
}

double cut_weight_of(const ExecGraph& g, const EdgeWeightFn& w,
                     const std::unordered_set<ComponentKey>& side) {
  double total = 0;
  for (const auto& [ekey, einfo] : g.edges()) {
    if (side.contains(ekey.a) != side.contains(ekey.b)) total += w(einfo);
  }
  return total;
}

TEST(EdgeWeightTest, DefaultCombinesBytesAndInteractions) {
  EdgeWeightFn w;
  EdgeInfo e{.invocations = 2, .accesses = 3, .bytes = 100};
  EXPECT_DOUBLE_EQ(w(e), 100.0 + 64.0 * 5);
}

TEST(StoerWagnerTest, TwoNodeGraph) {
  ExecGraph g;
  EdgeInfo e{.invocations = 1, .accesses = 0, .bytes = 36};
  g.set_edge(cls(0), cls(1), e);
  const auto cut = stoer_wagner_min_cut(g);
  EXPECT_DOUBLE_EQ(cut.weight, 100.0);
  EXPECT_EQ(cut.side.size(), 1u);
}

TEST(StoerWagnerTest, BridgeGraphCutsAtBridge) {
  // Two triangles of heavy edges joined by one light bridge.
  ExecGraph g;
  EdgeInfo heavy{.invocations = 0, .accesses = 0, .bytes = 100000};
  EdgeInfo light{.invocations = 0, .accesses = 0, .bytes = 1};
  g.set_edge(cls(0), cls(1), heavy);
  g.set_edge(cls(1), cls(2), heavy);
  g.set_edge(cls(0), cls(2), heavy);
  g.set_edge(cls(3), cls(4), heavy);
  g.set_edge(cls(4), cls(5), heavy);
  g.set_edge(cls(3), cls(5), heavy);
  g.set_edge(cls(2), cls(3), light);

  const auto cut = stoer_wagner_min_cut(g);
  EXPECT_DOUBLE_EQ(cut.weight, 1.0);
  EXPECT_EQ(cut.side.size(), 3u);
}

TEST(StoerWagnerTest, ThrowsOnTrivialGraph) {
  ExecGraph g;
  g.node(cls(0));
  EXPECT_THROW(stoer_wagner_min_cut(g), std::invalid_argument);
}

TEST(BruteForceTest, MatchesHandComputedSquare) {
  // Square with one diagonal: 0-1 (10), 1-2 (1), 2-3 (10), 3-0 (1), 0-2 (1).
  ExecGraph g;
  const auto e = [](std::uint64_t bytes) {
    return EdgeInfo{.invocations = 0, .accesses = 0, .bytes = bytes};
  };
  g.set_edge(cls(0), cls(1), e(10));
  g.set_edge(cls(1), cls(2), e(1));
  g.set_edge(cls(2), cls(3), e(10));
  g.set_edge(cls(3), cls(0), e(1));
  g.set_edge(cls(0), cls(2), e(1));
  const auto cut = reference::brute_force_min_cut(g);
  // Best cut: {0,1} vs {2,3} = 1 + 1 + 1 = 3.
  EXPECT_DOUBLE_EQ(cut.weight, 3.0);
}

// Property: Stoer–Wagner equals the brute-force optimum on random graphs.
class MinCutPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinCutPropertyTest, StoerWagnerIsOptimal) {
  Rng rng(GetParam());
  const std::size_t n = 3 + rng.next_below(6);  // 3..8 nodes
  const ExecGraph g = random_graph(rng, n, 0.7);
  const EdgeWeightFn w;

  const auto sw = stoer_wagner_min_cut(g, w);
  const auto bf = reference::brute_force_min_cut(g, w);
  EXPECT_NEAR(sw.weight, bf.weight, 1e-6)
      << "n=" << n << " seed=" << GetParam();
  // The reported side must actually realize the reported weight.
  EXPECT_NEAR(cut_weight_of(g, w, sw.side), sw.weight, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MinCutPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 40));

TEST(ModifiedMincutTest, EmptyAndTrivialGraphs) {
  ExecGraph g;
  EXPECT_TRUE(modified_mincut(g).empty());
  g.node(cls(0));
  EXPECT_TRUE(modified_mincut(g).empty());
}

TEST(ModifiedMincutTest, AllPinnedYieldsNoCandidates) {
  ExecGraph g;
  g.set_pinned(cls(0), true);
  g.set_pinned(cls(1), true);
  g.set_edge(cls(0), cls(1), EdgeInfo{.invocations = 1, .accesses = 0, .bytes = 1});
  EXPECT_TRUE(modified_mincut(g).empty());
}

TEST(ModifiedMincutTest, PinnedComponentsNeverOffloaded) {
  Rng rng(5);
  ExecGraph g = random_graph(rng, 8, 0.6);
  g.set_pinned(cls(0), true);
  g.set_pinned(cls(3), true);
  for (const auto& cand : modified_mincut(g)) {
    EXPECT_FALSE(cand.offload.contains(cls(0)));
    EXPECT_FALSE(cand.offload.contains(cls(3)));
  }
}

TEST(ModifiedMincutTest, CandidateSeriesShrinksToOne) {
  // Paper 3.3: the process repeats "until the first partition contains all
  // but one of the nodes"; every intermediate partitioning is a candidate,
  // and their count is smaller than the number of components.
  Rng rng(6);
  ExecGraph g = random_graph(rng, 10, 0.5);
  g.set_pinned(cls(0), true);
  const auto candidates = modified_mincut(g);
  ASSERT_EQ(candidates.size(), 9u);  // 10 nodes, 1 pinned
  EXPECT_LT(candidates.size(), g.node_count());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i].offload.size(), 9u - i);
  }
  EXPECT_EQ(candidates.back().offload.size(), 1u);
}

TEST(ModifiedMincutTest, CutStatsMatchDirectComputation) {
  Rng rng(7);
  ExecGraph g = random_graph(rng, 9, 0.6);
  g.set_pinned(cls(2), true);
  const EdgeWeightFn w;
  for (const auto& cand : modified_mincut(g, w)) {
    EXPECT_NEAR(cand.cut_weight, cut_weight_of(g, w, cand.offload), 1e-6);
    std::uint64_t bytes = 0, inv = 0, acc = 0;
    for (const auto& [ekey, einfo] : g.edges()) {
      if (cand.offload.contains(ekey.a) != cand.offload.contains(ekey.b)) {
        bytes += einfo.bytes;
        inv += einfo.invocations;
        acc += einfo.accesses;
      }
    }
    EXPECT_EQ(cand.cut_bytes, bytes);
    EXPECT_EQ(cand.cut_invocations, inv);
    EXPECT_EQ(cand.cut_accesses, acc);
  }
}

TEST(ModifiedMincutTest, MemoryAndTimeAggregation) {
  ExecGraph g;
  g.set_pinned(cls(0), true);
  g.add_memory(cls(1), 1000, 2);
  g.add_self_time(cls(1), sim_ms(5));
  g.add_memory(cls(2), 500, 1);
  g.set_edge(cls(0), cls(1), EdgeInfo{.invocations = 1, .accesses = 0, .bytes = 10});
  g.set_edge(cls(1), cls(2), EdgeInfo{.invocations = 1, .accesses = 0, .bytes = 10});

  const auto candidates = modified_mincut(g);
  ASSERT_FALSE(candidates.empty());
  // First candidate offloads both non-pinned components.
  EXPECT_EQ(candidates[0].offload_mem_bytes, 1500);
  EXPECT_EQ(candidates[0].offload_self_time, sim_ms(5));
}

TEST(ModifiedMincutTest, NoPinnedSeedsLargestMemoryComponent) {
  ExecGraph g;
  g.add_memory(cls(0), 100, 1);
  g.add_memory(cls(1), 90000, 1);
  g.add_memory(cls(2), 50, 1);
  g.set_edge(cls(0), cls(1), EdgeInfo{.invocations = 1, .accesses = 0, .bytes = 1});
  g.set_edge(cls(1), cls(2), EdgeInfo{.invocations = 1, .accesses = 0, .bytes = 1});
  for (const auto& cand : modified_mincut(g)) {
    EXPECT_FALSE(cand.offload.contains(cls(1)));
  }
}

TEST(ModifiedMincutTest, GreedyMovesHighestConnectivityFirst) {
  // Pinned hub 0; node 1 interacts heavily with 0, node 2 barely.
  ExecGraph g;
  g.set_pinned(cls(0), true);
  g.set_edge(cls(0), cls(1),
             EdgeInfo{.invocations = 0, .accesses = 0, .bytes = 100000});
  g.set_edge(cls(0), cls(2),
             EdgeInfo{.invocations = 0, .accesses = 0, .bytes = 10});
  const auto candidates = modified_mincut(g);
  ASSERT_EQ(candidates.size(), 2u);
  // After the first move, the high-connectivity node 1 joined the client, so
  // the final singleton candidate is node 2.
  EXPECT_TRUE(candidates[1].offload.contains(cls(2)));
  EXPECT_FALSE(candidates[1].offload.contains(cls(1)));
}

TEST(ModifiedMincutTest, DeterministicAcrossRuns) {
  Rng rng(12);
  const ExecGraph g = random_graph(rng, 12, 0.4);
  const auto a = modified_mincut(g);
  const auto b = modified_mincut(g);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offload, b[i].offload);
    EXPECT_DOUBLE_EQ(a[i].cut_weight, b[i].cut_weight);
  }
}

// Property: some candidate in the series is at least as good as plain
// Stoer–Wagner restricted to cuts that respect pinning (sanity: the series
// includes reasonable cuts).
TEST(ModifiedMincutTest, SeriesContainsLightCuts) {
  Rng rng(21);
  const ExecGraph g = random_graph(rng, 10, 0.5);
  const EdgeWeightFn w;
  const auto candidates = modified_mincut(g, w);
  ASSERT_FALSE(candidates.empty());
  double best = candidates[0].cut_weight;
  for (const auto& c : candidates) best = std::min(best, c.cut_weight);
  // The global optimum (unrestricted) is a lower bound for the best
  // candidate; the heuristic should land within a reasonable factor.
  const auto global = stoer_wagner_min_cut(g, w);
  EXPECT_GE(best, global.weight - 1e-9);
}

}  // namespace
}  // namespace aide::graph
