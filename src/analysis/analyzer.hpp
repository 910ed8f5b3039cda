// aidelint — static partition-safety analyzer over the class registry.
//
// The runtime partitioner (paper section 3.3) discovers everything
// dynamically: which classes interact, which are pinned, what a cut costs.
// CloneCloud-style systems showed that a large share of partition-safety
// facts are knowable *before execution* from code structure alone. This
// module is that static layer for the MiniVM: it walks registered ClassDef
// metadata (declared field types and references, pin reasons, and the
// cross-class `invokes` of each method's effect IR — never method bodies,
// which are opaque C++), builds a static reference graph, and produces
//
//   1. the transitive pinned closure — classes that can never leave the
//      client because they are pinned or hold fields of closure types,
//   2. lint diagnostics for partition-safety invariants (see Rule), and
//   3. StaticHints consumed by partition::decide_partitioning to
//      pre-contract the execution graph before MINCUT.
//
// Analysis is pure and deterministic: same registry, same report.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/hints.hpp"
#include "common/ids.hpp"
#include "vm/klass.hpp"

namespace aide::analysis {

enum class Severity : std::uint8_t { info, warning, error };

[[nodiscard]] constexpr std::string_view to_string(Severity s) noexcept {
  switch (s) {
    case Severity::info: return "info";
    case Severity::warning: return "warning";
    case Severity::error: return "error";
  }
  return "info";
}

enum class Rule : std::uint8_t {
  // WARN: a field declares a type that is not registered.
  unknown_field_type,
  // WARN: a stateful native method does not declare its side effect.
  undeclared_native_effect,
  // ERROR: a class declared migratable sits in the pinned closure (it is
  // pinned itself, or holds a field of a closure type).
  pinned_field_in_migratable,
  // WARN: a pinned class (not an entry point) is referenced exclusively by
  // classes outside the closure — every interaction with it will cross the
  // cut if its callers offload.
  pinned_leaf,
  // INFO: a class is never referenced statically and is not an entry point.
  dead_class,

  // ---- effect-inference rules (emitted by verify(), not analyze()) ----

  // ERROR: a method's effect IR names a class, member, static slot, or
  // callee that does not exist in the registry.
  ir_unknown_target,
  // ERROR: a declared NativeEffect contradicts the inferred summary (a
  // stateless/pure native whose IR writes state or allocates).
  effect_drift,
  // ERROR: an IR call site's argument count contradicts the callee's
  // declared arity.
  arity_drift,
  // ERROR/INFO: a write's declared value class contradicts the field's
  // declared type (ERROR), or stores refs into an untyped field (INFO —
  // the static reference graph understates connectivity).
  field_type_drift,
  // INFO: a method has no declared effect IR; its summary is ⊤ (unknown)
  // and poisons every transitive caller.
  missing_ir,
  // INFO: a ui/user pin on a class whose methods are all proven free of
  // device effects and writes — the pin blocks offload for nothing.
  pin_unjustified,
  // INFO: a stateful native whose inferred summary is pure — it could be
  // declared stateless and run on either VM.
  stateless_candidate,
};

[[nodiscard]] constexpr std::string_view to_string(Rule r) noexcept {
  switch (r) {
    case Rule::unknown_field_type: return "unknown-field-type";
    case Rule::undeclared_native_effect: return "undeclared-native-effect";
    case Rule::pinned_field_in_migratable:
      return "pinned-field-in-migratable";
    case Rule::pinned_leaf: return "pinned-leaf";
    case Rule::dead_class: return "dead-class";
    case Rule::ir_unknown_target: return "ir-unknown-target";
    case Rule::effect_drift: return "effect-drift";
    case Rule::arity_drift: return "arity-drift";
    case Rule::field_type_drift: return "field-type-drift";
    case Rule::missing_ir: return "missing-ir";
    case Rule::pin_unjustified: return "pin-unjustified";
    case Rule::stateless_candidate: return "stateless-candidate";
  }
  return "unknown";
}

struct Diagnostic {
  Severity severity = Severity::info;
  Rule rule = Rule::dead_class;
  ClassId cls;
  std::string class_name;
  std::string source;  // declared source anchor, may be empty
  std::string message;

  // "<source>: <severity> [<rule>] <class>: <message>"
  [[nodiscard]] std::string format() const;
};

enum class RefKind : std::uint8_t { field, call, ref };

// One edge of the static reference graph (class granularity, deduplicated).
struct StaticEdge {
  ClassId from;
  ClassId to;
  RefKind kind = RefKind::ref;

  friend bool operator==(const StaticEdge&, const StaticEdge&) = default;
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;  // errors first, then by class id
  std::vector<ClassId> pin_roots;       // sorted; explicitly/derived pinned
  std::vector<StaticEdge> edges;        // sorted static reference graph
  StaticHints hints;
  std::size_t classes_analyzed = 0;

  [[nodiscard]] std::size_t count(Severity s) const noexcept;
  [[nodiscard]] std::size_t errors() const noexcept {
    return count(Severity::error);
  }
  [[nodiscard]] bool ok() const noexcept { return errors() == 0; }

  // True if `cls` is a pin root (always illegal to offload).
  [[nodiscard]] bool is_pin_root(ClassId cls) const noexcept;
  // True if `cls` is in the transitive pinned closure.
  [[nodiscard]] bool in_closure(ClassId cls) const noexcept;

  // One-line counts summary for logs.
  [[nodiscard]] std::string summary() const;
};

// Thrown by callers (e.g. the platform) that refuse to run a program whose
// registry has ERROR-severity findings.
class AnalysisError : public std::runtime_error {
 public:
  explicit AnalysisError(const AnalysisReport& report);
  [[nodiscard]] const AnalysisReport& report() const noexcept {
    return report_;
  }

 private:
  AnalysisReport report_;
};

// Analyzes every class registered so far. Pure: no VM, no execution.
[[nodiscard]] AnalysisReport analyze(const vm::ClassRegistry& registry);

}  // namespace aide::analysis
