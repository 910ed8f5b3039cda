// aideverify — whole-program interprocedural effect inference.
//
// aidelint (analyzer.hpp) checks *declared* metadata for internal
// consistency; it still trusts every declaration. This pass closes that
// hole: it walks the per-method effect IR (vm::EffectOp, declared next to
// the opaque C++ bodies), resolves names against the registry, and computes
// a fixpoint of per-method summaries over the IR call graph:
//
//   EffectSummary = (reads: LocSet, writes: LocSet, allocs, device, yields,
//                    unknown)
//
// The abstract domain for memory locations is
//
//   Loc  = ClassId × {field, static_slot, elems} × member
//   member ∈ field/slot index ∪ {kAnyMember}          (kAnyMember = ⊤ row)
//   LocSet = finite antichain of Locs ∪ {⊤}           (⊤ = "anything")
//
// ordered by subsumption: (c, k, ⊤) covers every (c, k, i), and the set-level
// ⊤ covers everything. Methods without IR get the ⊤ summary, which poisons
// every transitive caller — "unknown" is loud, never silently dropped.
// Join is set union with subsumption normalization; the lattice has finite
// height (locations are drawn from the fixed registry), so the worklist
// fixpoint terminates even for recursive call graphs.
//
// The summaries are then used three ways:
//  1. audit — every hand-declared NativeEffect / pin / arity / field-type
//     annotation is cross-checked against the inferred facts, and every IR
//     invoke once: ir-unknown-target for an unknown class or method,
//     arity-drift for its argument count (Rule::ir_unknown_target ..
//     Rule::stateless_candidate);
//  2. conflicts — a pairwise conflict matrix over the program's store
//     locations, printed in aidelint's report;
//  3. hints — pure methods become StaticHints::replay_safe, encapsulated-
//     write classes become StaticHints::prefetch_eligible.
//
// None of it gates the transport: write-behind is safe by the endpoint's
// flush rules alone (rpc/endpoint.hpp), whatever the registry declares.
//
// Like analyze(), verify() is pure and deterministic: same registry, same
// report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/ids.hpp"
#include "vm/klass.hpp"

namespace aide::analysis {

enum class LocKind : std::uint8_t { field, static_slot, elems };

[[nodiscard]] constexpr std::string_view to_string(LocKind k) noexcept {
  switch (k) {
    case LocKind::field: return "field";
    case LocKind::static_slot: return "static";
    case LocKind::elems: return "elems";
  }
  return "?";
}

// `member` value meaning "any member" (index-addressed arrays, unknown).
inline constexpr std::uint32_t kAnyMember = 0xFFFFFFFFU;

// One abstract memory location. `member` is a field index (field), a
// class-local static slot index (static_slot), or kAnyMember; elems
// locations always use kAnyMember (array elements are index-addressed).
struct Loc {
  ClassId cls;
  LocKind kind = LocKind::field;
  std::uint32_t member = kAnyMember;

  friend constexpr bool operator==(const Loc&, const Loc&) noexcept = default;
  friend constexpr auto operator<=>(const Loc&, const Loc&) noexcept = default;

  // True if the two locations may denote the same memory (kAnyMember rows
  // overlap every member of the same class and kind).
  [[nodiscard]] constexpr bool overlaps(const Loc& o) const noexcept {
    return cls == o.cls && kind == o.kind &&
           (member == o.member || member == kAnyMember ||
            o.member == kAnyMember);
  }
};

// Antichain of Locs with an explicit ⊤. Kept sorted and subsumption-
// normalized: inserting (c, k, kAnyMember) absorbs every (c, k, i).
class LocSet {
 public:
  void insert(Loc loc);
  void merge(const LocSet& other);
  void set_unknown() noexcept {
    unknown_ = true;
    locs_.clear();
  }

  [[nodiscard]] bool unknown() const noexcept { return unknown_; }
  [[nodiscard]] bool empty() const noexcept {
    return !unknown_ && locs_.empty();
  }
  // May this set touch `loc`? ⊤ touches everything.
  [[nodiscard]] bool may_touch(const Loc& loc) const noexcept;
  // Does this set contain a loc of exactly this class (any member/kind)?
  [[nodiscard]] bool touches_class(ClassId cls) const noexcept;
  [[nodiscard]] const std::vector<Loc>& locs() const noexcept { return locs_; }

  friend bool operator==(const LocSet&, const LocSet&) = default;

 private:
  std::vector<Loc> locs_;  // sorted antichain
  bool unknown_ = false;   // ⊤
};

// The per-method fixpoint summary: everything the method and its whole call
// tree may do.
struct EffectSummary {
  LocSet reads;
  LocSet writes;
  std::vector<ClassId> allocs;  // sorted classes it may instantiate
  bool device = false;          // reaches a device_state native
  bool yields = false;          // reaches an explicit yield point
  bool unknown = false;         // ⊤: some reachable method has no IR

  // No writes, allocations, or device effects, and fully known: replaying
  // the method is indistinguishable from running it once.
  [[nodiscard]] bool pure() const noexcept {
    return !unknown && writes.empty() && allocs.empty() && !device;
  }
  // Never mutates program-visible state (allocations allowed).
  [[nodiscard]] bool read_only() const noexcept {
    return !unknown && writes.empty() && !device;
  }
};

// One method's inferred facts, resolved to ids and names for reporting.
struct MethodFacts {
  ClassId cls;
  MethodId method;
  std::string class_name;
  std::string method_name;
  bool has_ir = false;
  EffectSummary summary;
};

// Pairwise conflict matrix over the program's deferred-store locations: the
// distinct write locations inferred across all summaries, and which pairs
// fail to commute (overlap). A store only conflicts with itself unless a
// kAnyMember row aliases its whole class — the matrix makes that aliasing
// explicit in aidelint's report.
struct ConflictMatrix {
  std::vector<Loc> store_locs;  // sorted distinct write locations
  // (i, j) index pairs into store_locs with i < j that overlap.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> conflicts;
  // True if some summary writes ⊤ — every pair conflicts, matrix rows are
  // only the known locations.
  bool any_unknown_writes = false;
};

struct VerifyReport {
  // The metadata-only report this pass builds on (graph, closure, lints).
  AnalysisReport base;
  // Verify-layer diagnostics, sorted like base (errors first, by class).
  std::vector<Diagnostic> diagnostics;
  // One entry per registered method, ordered by (class id, method id).
  std::vector<MethodFacts> methods;
  ConflictMatrix matrix;
  // base.hints plus replay_safe / prefetch_eligible.
  StaticHints hints;
  std::size_t methods_total = 0;
  std::size_t methods_with_ir = 0;

  [[nodiscard]] std::size_t count(Severity s) const noexcept;
  [[nodiscard]] std::size_t errors() const noexcept {
    return count(Severity::error) + base.errors();
  }
  [[nodiscard]] std::size_t warnings() const noexcept {
    return count(Severity::warning) + base.count(Severity::warning);
  }
  [[nodiscard]] bool ok() const noexcept { return errors() == 0; }
  // 1.0 when every registered method declares IR.
  [[nodiscard]] double ir_coverage() const noexcept {
    return methods_total == 0
               ? 1.0
               : static_cast<double>(methods_with_ir) /
                     static_cast<double>(methods_total);
  }
  [[nodiscard]] const MethodFacts* facts(ClassId cls,
                                         MethodId method) const noexcept;
  // One-line counts summary for logs.
  [[nodiscard]] std::string summary() const;
};

// Runs analyze() plus effect inference over every registered class.
// Pure: no VM, no execution. Throws AnalysisError only via analyze()'s
// contract (callers gate on errors themselves).
[[nodiscard]] VerifyReport verify(const vm::ClassRegistry& registry);
// The same inference over an analyze() report the caller already holds for
// this registry (it becomes VerifyReport::base).
[[nodiscard]] VerifyReport verify(const vm::ClassRegistry& registry,
                                  AnalysisReport base);

// ------------------------------------------------------------ startup gates

// What the runtimes that execute a registry (Platform, SurrogateServer) keep
// from the startup gates.
struct StartupGates {
  std::optional<AnalysisReport> analysis;  // aidelint ran
  std::optional<VerifyReport> verify;      // aideverify ran

  // Verify's hints (a superset: replay/prefetch facts) when it ran, else
  // aidelint's, else none.
  [[nodiscard]] const StaticHints* hints() const noexcept {
    if (verify.has_value()) return &verify->hints;
    return analysis.has_value() ? &analysis->hints : nullptr;
  }
};

// Runs the enabled gates, logging WARN findings. Throws AnalysisError on
// aidelint ERROR findings, then on aideverify's own (base lint errors stay
// waivable by turning static_analysis off). analyze() runs once.
[[nodiscard]] StartupGates run_startup_gates(const vm::ClassRegistry& registry,
                                             bool static_analysis,
                                             bool effect_verify);

}  // namespace aide::analysis
