// Tests for the consumers of the expanded StaticHints: the partitioner must
// be indifferent to the verify-only fields (replay_safe, prefetch_eligible)
// and tolerate hand-crafted and contradictory hints.
#include <gtest/gtest.h>

#include "analysis/hints.hpp"
#include "graph/exec_graph.hpp"
#include "partition/partitioner.hpp"

namespace aide::analysis {
namespace {

graph::EdgeInfo edge(std::uint64_t bytes, std::uint64_t inv) {
  return graph::EdgeInfo{.invocations = inv, .accesses = 0, .bytes = bytes};
}

graph::ExecGraph consumer_graph() {
  using graph::ComponentKey;
  graph::ExecGraph g;
  const ComponentKey ui{ClassId{0}}, data{ClassId{2}}, store{ClassId{3}};
  g.set_pinned(ui, true);
  g.add_memory(ui, 10'000, 5);
  g.add_memory(data, 400'000, 50);
  g.add_memory(store, 600'000, 3);
  g.set_edge(ui, data, edge(30'000, 300));
  g.set_edge(data, store, edge(200'000, 1000));
  return g;
}

partition::PartitionRequest consumer_request(const StaticHints* hints) {
  partition::PartitionRequest req;
  req.objective = partition::Objective::free_memory;
  req.heap_capacity = 1 << 20;
  req.min_free_bytes = 500'000;
  req.history_duration = sim_sec(10);
  req.hints = hints;
  return req;
}

TEST(HintsConsumerTest, VerifyOnlyFieldsNeverChangeThePartition) {
  const graph::ExecGraph g = consumer_graph();
  const auto plain = partition::decide_partitioning(g, consumer_request(nullptr));
  ASSERT_TRUE(plain.offload);

  // Hand-crafted hints carrying ONLY the verify-layer fields: the
  // partitioner consumes never_migrate/must_colocate/merge_candidates and
  // must treat these as a no-op contraction.
  StaticHints verify_only;
  verify_only.replay_safe = {{ClassId{2}, MethodId{0}},
                             {ClassId{3}, MethodId{1}}};
  verify_only.prefetch_eligible = {ClassId{2}, ClassId{3}};
  ASSERT_FALSE(verify_only.empty());
  const auto d = partition::decide_partitioning(g, consumer_request(&verify_only));
  ASSERT_TRUE(d.offload);
  EXPECT_EQ(d.mincut_nodes, plain.mincut_nodes);  // nothing contracted
  EXPECT_EQ(d.selected.offload, plain.selected.offload);
}

TEST(HintsConsumerTest, ExpandedFieldsRideAlongWithContraction) {
  const graph::ExecGraph g = consumer_graph();
  StaticHints base;
  base.never_migrate = {ClassId{0}};
  base.merge_candidates = {{ClassId{2}, ClassId{3}}};
  const auto contracted = partition::decide_partitioning(g, consumer_request(&base));
  ASSERT_TRUE(contracted.offload);
  ASSERT_TRUE(contracted.hints_applied);

  StaticHints expanded = base;
  expanded.replay_safe = {{ClassId{2}, MethodId{0}}};
  expanded.prefetch_eligible = {ClassId{3}};
  const auto d = partition::decide_partitioning(g, consumer_request(&expanded));
  ASSERT_TRUE(d.offload);
  EXPECT_EQ(d.mincut_nodes, contracted.mincut_nodes);
  EXPECT_EQ(d.selected.offload, contracted.selected.offload);
}

TEST(HintsConsumerTest, ContradictoryAndOutOfRangeHintsAreHarmless) {
  const graph::ExecGraph g = consumer_graph();
  StaticHints weird;
  // Contradiction: a pinned-closure class marked prefetch eligible, and a
  // replay_safe entry for a class that does not exist at all.
  weird.never_migrate = {ClassId{0}};
  weird.prefetch_eligible = {ClassId{0}};
  weird.replay_safe = {{ClassId{999}, MethodId{42}}};
  weird.merge_candidates = {{ClassId{777}, ClassId{888}}};  // not in graph
  const auto d = partition::decide_partitioning(g, consumer_request(&weird));
  ASSERT_TRUE(d.offload);
  // The unknown merge pair is skipped; the decision still expands cleanly.
  EXPECT_FALSE(d.selected.offload.contains(graph::ComponentKey{ClassId{0}}));
}

}  // namespace
}  // namespace aide::analysis
