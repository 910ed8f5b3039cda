// Machine-readable output of the static partition-safety analyzer.
//
// StaticHints is the narrow interface between the static layer (src/analysis)
// and the dynamic layer (src/partition): the analyzer derives these sets from
// declared class metadata alone, and the partitioner uses them to pre-contract
// the execution graph before MINCUT. Keeping the struct header-only (ids
// only, no analyzer types) lets aide_partition consume hints without linking
// the analyzer.
//
// Semantics:
//  - never_migrate: classes in the transitive pinned closure — every class
//    that is itself pinned (stateful native / UI / user-pinned) or holds a
//    declared field of a closure type. Components of these classes can be
//    merged into the client-side anchor: no legal cut separates them from
//    the device.
//  - must_colocate: the declared field edges (holder, held) that pulled
//    holders into the closure; kept for diagnostics and edge-level
//    contraction.
//  - merge_candidates: (leaf, partner) pairs where the leaf class statically
//    references exactly one other class and neither is in the closure —
//    cutting between them can never be profitable at class granularity, so
//    they may be merged before MINCUT to shrink the problem.
//
// The effect-inference pass (effects.hpp) fills two further sets that the
// metadata-only analyzer leaves empty (aidelint prints both):
//  - replay_safe: methods proven pure — re-executing them on RPC retry is
//    indistinguishable from at-most-once delivery.
//  - prefetch_eligible: classes with encapsulated writes (only their own
//    methods write their instance fields) and not in the pinned closure —
//    such objects stay coherent when pulled to the client, so the platform's
//    proactive recall on a degrading link brings exactly these home.
#pragma once

#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace aide::analysis {

struct StaticHints {
  // Sorted by ClassId.
  std::vector<ClassId> never_migrate;
  // Sorted (holder, held) pairs; both endpoints are in never_migrate.
  std::vector<std::pair<ClassId, ClassId>> must_colocate;
  // Sorted (leaf, partner) pairs; neither endpoint is in never_migrate.
  std::vector<std::pair<ClassId, ClassId>> merge_candidates;
  // Sorted (class, method) pairs proven pure by effect inference; empty
  // unless the hints came from analysis::verify.
  std::vector<std::pair<ClassId, MethodId>> replay_safe;
  // Sorted classes with encapsulated writes; empty unless from verify.
  std::vector<ClassId> prefetch_eligible;

  [[nodiscard]] bool empty() const noexcept {
    return never_migrate.empty() && must_colocate.empty() &&
           merge_candidates.empty() && replay_safe.empty() &&
           prefetch_eligible.empty();
  }

  // Dense ClassId-indexed view of never_migrate, for consumers that resolve
  // classes to interned ids on a hot path (the partitioner's pre-contraction
  // tests every graph node; a bitmap load replaces a binary search).
  [[nodiscard]] std::vector<bool> never_migrate_mask(
      std::size_t n_classes) const {
    std::vector<bool> mask(n_classes, false);
    for (const ClassId cls : never_migrate) {
      if (cls.value() < n_classes) mask[cls.value()] = true;
    }
    return mask;
  }
};

}  // namespace aide::analysis
