#include "analysis/analyzer.hpp"

#include <algorithm>
#include <deque>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace aide::analysis {

namespace {

// The registry's built-in array classes carry no static metadata and are
// managed by the granularity policy, not by class-level hints.
bool is_builtin(const vm::ClassDef& def) {
  return def.name == "int[]" || def.name == "char[]" || def.name == "Object[]";
}

bool edge_less(const StaticEdge& a, const StaticEdge& b) {
  return std::tuple(a.from, a.to, a.kind) < std::tuple(b.from, b.to, b.kind);
}

}  // namespace

std::string Diagnostic::format() const {
  std::string out;
  if (!source.empty()) {
    out += source;
    out += ": ";
  }
  out += to_string(severity);
  out += " [";
  out += to_string(rule);
  out += "] ";
  out += class_name;
  out += ": ";
  out += message;
  return out;
}

std::size_t AnalysisReport::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

bool AnalysisReport::is_pin_root(ClassId cls) const noexcept {
  return std::binary_search(pin_roots.begin(), pin_roots.end(), cls);
}

bool AnalysisReport::in_closure(ClassId cls) const noexcept {
  return std::binary_search(hints.never_migrate.begin(),
                            hints.never_migrate.end(), cls);
}

std::string AnalysisReport::summary() const {
  std::string out = "analyzed " + std::to_string(classes_analyzed) +
                    " classes: " + std::to_string(errors()) + " errors, " +
                    std::to_string(count(Severity::warning)) + " warnings, " +
                    std::to_string(count(Severity::info)) +
                    " infos; pinned closure " +
                    std::to_string(hints.never_migrate.size()) +
                    ", colocate edges " +
                    std::to_string(hints.must_colocate.size()) +
                    ", merge candidates " +
                    std::to_string(hints.merge_candidates.size());
  return out;
}

namespace {

std::string error_message(const AnalysisReport& report) {
  std::string msg = "static analysis failed (" + report.summary() + ")";
  for (const auto& d : report.diagnostics) {
    if (d.severity == Severity::error) {
      msg += "\n  ";
      msg += d.format();
    }
  }
  return msg;
}

}  // namespace

AnalysisError::AnalysisError(const AnalysisReport& report)
    : std::runtime_error(error_message(report)), report_(report) {}

AnalysisReport analyze(const vm::ClassRegistry& registry) {
  AnalysisReport report;
  report.classes_analyzed = registry.size();

  const auto diag = [&](Severity sev, Rule rule, const vm::ClassDef& def,
                        std::string message) {
    report.diagnostics.push_back(Diagnostic{.severity = sev,
                                            .rule = rule,
                                            .cls = def.id,
                                            .class_name = def.name,
                                            .source = def.source,
                                            .message = std::move(message)});
  };

  // ---- resolve declarations into a static reference graph -----------------
  std::vector<StaticEdge> edges;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const auto& def = registry.get(ClassId{static_cast<std::uint32_t>(i)});
    if (is_builtin(def)) continue;

    for (const auto& f : def.fields) {
      if (f.type.empty()) continue;
      if (!registry.contains(f.type)) {
        diag(Severity::warning, Rule::unknown_field_type, def,
             "field '" + f.name + "' declares unknown type '" + f.type + "'");
        continue;
      }
      edges.push_back(
          StaticEdge{def.id, registry.find(f.type), RefKind::field});
    }

    for (const auto& r : def.refs) {
      if (!registry.contains(r)) {
        diag(Severity::warning, Rule::unknown_field_type, def,
             "declared reference to unknown class '" + r + "'");
        continue;
      }
      edges.push_back(StaticEdge{def.id, registry.find(r), RefKind::ref});
    }

    for (const auto& m : def.methods) {
      if (m.kind == vm::MethodKind::native &&
          m.effect == vm::NativeEffect::undeclared) {
        diag(Severity::warning, Rule::undeclared_native_effect, def,
             "stateful native method '" + m.name +
                 "' declares no side effect (expected device_state)");
      }
      // Call edges come from the effect IR: one per class a method invokes,
      // other than its own. An invoke whose class does not resolve adds
      // nothing; aideverify reports it as ir-unknown-target.
      for (const auto& op : m.ir) {
        if (op.kind != vm::EffectOpKind::call || op.cls == def.name ||
            !registry.contains(op.cls)) {
          continue;
        }
        edges.push_back(
            StaticEdge{def.id, registry.find(op.cls), RefKind::call});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), edge_less);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  report.edges = edges;

  // Reverse field adjacency: who holds a declared field of class X?
  std::unordered_map<ClassId, std::vector<ClassId>> field_holders;
  std::unordered_map<ClassId, std::vector<ClassId>> in_neighbors;
  for (const auto& e : edges) {
    if (e.kind == RefKind::field) field_holders[e.to].push_back(e.from);
    in_neighbors[e.to].push_back(e.from);
  }

  // ---- pin roots and the transitive pinned closure ------------------------
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const ClassId id{static_cast<std::uint32_t>(i)};
    const auto& def = registry.get(id);
    if (!is_builtin(def) && def.is_pinned()) report.pin_roots.push_back(id);
  }

  std::unordered_set<ClassId> closure(report.pin_roots.begin(),
                                      report.pin_roots.end());
  std::deque<ClassId> frontier(report.pin_roots.begin(),
                               report.pin_roots.end());
  while (!frontier.empty()) {
    const ClassId cur = frontier.front();
    frontier.pop_front();
    const auto it = field_holders.find(cur);
    if (it == field_holders.end()) continue;
    for (const ClassId holder : it->second) {
      if (closure.insert(holder).second) frontier.push_back(holder);
    }
  }

  // ---- closure-dependent lints --------------------------------------------
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const ClassId id{static_cast<std::uint32_t>(i)};
    const auto& def = registry.get(id);
    if (is_builtin(def)) continue;

    if (def.declared_migratable && closure.contains(id)) {
      if (def.is_pinned()) {
        diag(Severity::error, Rule::pinned_field_in_migratable, def,
             "declared migratable but pinned (reason: " +
                 std::string(to_string(def.effective_pin_reason())) + ")");
      } else {
        // A non-root closure member always joined through a direct field.
        std::string offender = "?";
        std::string held_type = "?";
        for (const auto& f : def.fields) {
          if (f.type.empty() || !registry.contains(f.type)) continue;
          if (closure.contains(registry.find(f.type))) {
            offender = f.name;
            held_type = f.type;
            break;
          }
        }
        diag(Severity::error, Rule::pinned_field_in_migratable, def,
             "declared migratable but holds field '" + offender +
                 "' of pinned-closure type '" + held_type + "'");
      }
    }

    if (def.is_pinned() && !def.entry) {
      const auto it = in_neighbors.find(id);
      if (it != in_neighbors.end() && !it->second.empty()) {
        bool all_outside = true;
        for (const ClassId from : it->second) {
          if (closure.contains(from)) {
            all_outside = false;
            break;
          }
        }
        if (all_outside) {
          diag(Severity::warning, Rule::pinned_leaf, def,
               "pinned (" + std::string(to_string(def.effective_pin_reason())) +
                   ") but referenced only by classes outside the pinned "
                   "closure; every interaction crosses the cut if they "
                   "offload");
        }
      }
    }

    if (!def.entry && !in_neighbors.contains(id)) {
      diag(Severity::info, Rule::dead_class, def,
           "never referenced statically and not an entry point");
    }
  }

  // ---- hints ---------------------------------------------------------------
  report.hints.never_migrate.assign(closure.begin(), closure.end());
  std::sort(report.hints.never_migrate.begin(),
            report.hints.never_migrate.end());

  for (const auto& e : edges) {
    if (e.kind == RefKind::field && closure.contains(e.to)) {
      report.hints.must_colocate.emplace_back(e.from, e.to);
    }
  }
  std::sort(report.hints.must_colocate.begin(),
            report.hints.must_colocate.end());
  report.hints.must_colocate.erase(
      std::unique(report.hints.must_colocate.begin(),
                  report.hints.must_colocate.end()),
      report.hints.must_colocate.end());

  // Zero-benefit merge candidates: a class whose static references touch
  // exactly one partner class. At class granularity, no cut between the two
  // can beat the same cut with them merged, so MINCUT need not consider
  // separating them.
  std::unordered_map<ClassId, std::unordered_set<ClassId>> neighbors;
  for (const auto& e : edges) {
    if (e.from == e.to) continue;
    neighbors[e.from].insert(e.to);
    neighbors[e.to].insert(e.from);
  }
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const ClassId id{static_cast<std::uint32_t>(i)};
    const auto& def = registry.get(id);
    if (is_builtin(def) || closure.contains(id)) continue;
    const auto it = neighbors.find(id);
    if (it == neighbors.end() || it->second.size() != 1) continue;
    const ClassId partner = *it->second.begin();
    if (closure.contains(partner)) continue;
    report.hints.merge_candidates.emplace_back(id, partner);
  }
  std::sort(report.hints.merge_candidates.begin(),
            report.hints.merge_candidates.end());

  // Errors first, then warnings, then infos; stable by class id within a
  // severity so output is deterministic and diffable.
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.severity != b.severity) {
                       return static_cast<int>(a.severity) >
                              static_cast<int>(b.severity);
                     }
                     return a.cls < b.cls;
                   });
  return report;
}

}  // namespace aide::analysis
