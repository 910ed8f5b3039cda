// Batch-safety oracle: the narrow interface between the effect analysis
// (src/analysis) and the write-behind transport (src/rpc).
//
// The endpoint keeps a pending-op queue: deferred stores ride ahead of the
// next invoke in one frame (prefix semantics) and flush at a fixed depth or
// at a yield point. Those mechanics are order-preserving by construction,
// but whether a store may wait in the queue at all, and whether an invoke
// may carry riders, depends on facts about the program the transport cannot
// see: whether every writer is statically known, and whether the callee's
// whole call tree has a known effect summary.
//
// The effect analyzer proves those facts; this header carries the two
// verdicts the endpoint consults across the layer boundary. Like hints.hpp
// it is deliberately ids-only and header-only so aide_rpc can consume
// verdicts without linking the analyzer. Both are conservative: "false"
// always means "flush earlier", never "reorder", so a refusing oracle can
// only shrink batches, and an oracle that proves everything leaves the wire
// byte-identical to no oracle at all.
#pragma once

#include "common/ids.hpp"

namespace aide::analysis {

class BatchSafetyOracle {
 public:
  virtual ~BatchSafetyOracle() = default;

  // True if stores may sit in the pending queue: the analysis knows every
  // writer in the program, so delayed visibility cannot be observed through
  // an effect it failed to model. False ⇒ the endpoint flushes the queue and
  // writes each store through.
  [[nodiscard]] virtual bool store_deferrable() const noexcept = 0;

  // True if invoking (cls, method) may carry pending stores as riders in
  // its frame. Requires a known effect summary for the whole call tree:
  // an unknown (⊤) summary might interleave effects the prefix-application
  // proof does not cover. False ⇒ pending ops flush in their own batch
  // first (same order, one extra frame).
  [[nodiscard]] virtual bool invoke_accepts_riders(
      ClassId cls, MethodId method) const noexcept = 0;
};

}  // namespace aide::analysis
