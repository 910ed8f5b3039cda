// Partitioning policy evaluation (paper section 3.3).
//
// The partitioner reduces "is there a beneficial offloading?" to evaluating
// the candidate series produced by the modified MINCUT heuristic against a
// policy:
//
//  * free_memory objective (section 5.1) — a candidate is feasible if it
//    frees at least the policy's minimum fraction of the client heap; among
//    feasible candidates the one with the smallest interaction cost across
//    the cut is selected ("offloads a sufficient amount of information while
//    placing the smallest demand on network bandwidth").
//
//  * speed_up objective (section 5.2) — each candidate's total execution time
//    is predicted from per-component CPU self-times (client speed vs the
//    3.5x surrogate) plus communication for cut-crossing interactions plus
//    the one-time migration of its state (like CloneCloud's cost model, the
//    prediction always prices the move it proposes); the fastest candidate
//    is selected only if it beats staying on the client (Biomer: the system
//    "correctly decided not to offload any objects").
// Static hints (src/analysis) can pre-contract the execution graph before
// MINCUT: never-migrate components collapse into the pinned client anchor and
// zero-benefit merge candidates collapse into their partners, shrinking the
// cut problem while making statically-illegal cuts unrepresentable. Hints are
// opt-in (PartitionRequest::hints); without them the pipeline is bit-identical
// to the purely dynamic paper behavior.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/hints.hpp"
#include "common/simclock.hpp"
#include "graph/mincut.hpp"
#include "netsim/link.hpp"

namespace aide::partition {

enum class Objective { free_memory, speed_up };

struct PartitionRequest {
  Objective objective = Objective::free_memory;

  // --- free_memory objective ----------------------------------------------
  std::int64_t heap_capacity = 0;
  // Minimum client heap bytes a partitioning must free to be acceptable
  // (paper: "at least 20% of the Java heap").
  std::int64_t min_free_bytes = 0;

  // --- speed_up objective ---------------------------------------------------
  double client_speed = 1.0;
  double surrogate_speedup = 3.5;

  // --- shared ----------------------------------------------------------------
  netsim::LinkParams link = netsim::LinkParams::wavelan();
  // Duration of the execution history the graph summarizes; used to convert
  // historical cut bytes into a predicted bandwidth and to scale the
  // history's communication volume into the time prediction.
  SimDuration history_duration = sim_sec(1);
  graph::EdgeWeightFn weight;

  // Optional static hints from analysis::analyze(); when set (and non-empty)
  // the graph is pre-contracted before MINCUT. Not owned; must outlive the
  // call.
  const analysis::StaticHints* hints = nullptr;

  // Post-reconcile re-offload seeding: components whose working tree was
  // rebuilt while disconnected (derived from the redo-log watch set) receive
  // a per-byte credit against their candidate's cut cost under the
  // free_memory objective, so allocation-gravity apps re-offload the tree
  // they grew offline instead of the cheapest sliver. Not owned; must
  // outlive the call. Null or empty means no bias (byte-identical path).
  const std::unordered_set<graph::ComponentKey>* reoffload_gravity = nullptr;
  double gravity_credit_per_byte = 0.0;
};

struct PartitionDecision {
  bool offload = false;
  graph::Candidate selected;
  std::size_t candidates_total = 0;
  std::size_t candidates_feasible = 0;

  // free_memory: predicted steady-state bandwidth across the cut.
  double predicted_bandwidth_bps = 0.0;

  // speed_up: predicted times over the history window.
  SimDuration predicted_original_time = 0;
  SimDuration predicted_offloaded_time = 0;

  // Real wall-clock cost of running the heuristic + evaluation (the paper
  // reports ~0.1 s on a 600 MHz Pentium).
  double compute_seconds = 0.0;

  // Size of the graph MINCUT actually ran on (after hint contraction, when
  // hints were applied) — the pre-contraction win is nodes/edges saved.
  std::size_t mincut_nodes = 0;
  std::size_t mincut_edges = 0;
  bool hints_applied = false;
};

// Result of pre-contracting an execution graph with static hints. `members`
// maps each surviving representative to the original components folded into
// it (including itself) so a selected offload set can be expanded back to
// monitor-visible component keys.
struct ContractedGraph {
  graph::ExecGraph graph;
  std::unordered_map<graph::ComponentKey, std::vector<graph::ComponentKey>>
      members;
};

// Contracts `graph` under `hints`: every component whose class is in
// never_migrate (or whose node is dynamically pinned) merges into a single
// pinned client anchor; each merge-candidate pair with both endpoints
// unpinned merges into one node. Node stats and edge totals are preserved
// (parallel edges sum; intra-group edges vanish). Deterministic: the
// representative of a group is its smallest component key.
[[nodiscard]] ContractedGraph contract_with_hints(
    const graph::ExecGraph& graph, const analysis::StaticHints& hints);

// Predicted communication time for one candidate's historical cut traffic.
[[nodiscard]] SimDuration predicted_comm_time(const graph::Candidate& cand,
                                              const netsim::LinkParams& link);

// Predicted total execution time of the recorded history if `cand` had been
// in effect, under the speed_up objective, including one null RTT plus the
// serialization of the candidate's memory for migrating it.
[[nodiscard]] SimDuration predicted_offload_time(const graph::Candidate& cand,
                                                 SimDuration total_self_time,
                                                 const PartitionRequest& req);

// Evaluates the modified-MINCUT candidate series against the policy.
[[nodiscard]] PartitionDecision decide_partitioning(
    const graph::ExecGraph& graph, const PartitionRequest& req);

}  // namespace aide::partition
