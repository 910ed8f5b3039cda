// Implementation of aideverify: IR resolution, interprocedural fixpoint,
// metadata audits, conflict matrix, and the BatchSafety oracle.
#include "analysis/effects.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string_view>

#include "common/log.hpp"

namespace aide::analysis {

namespace {

bool is_builtin_name(std::string_view name) {
  return name == "int[]" || name == "char[]" || name == "Object[]";
}

bool is_builtin(const vm::ClassDef& def) { return is_builtin_name(def.name); }

Diagnostic make_diag(Severity sev, Rule rule, const vm::ClassDef& def,
                     std::string message) {
  Diagnostic d;
  d.severity = sev;
  d.rule = rule;
  d.cls = def.id;
  d.class_name = def.name;
  d.source = def.source;
  d.message = std::move(message);
  return d;
}

std::string method_ref(const vm::ClassDef& def, const vm::MethodDef& m) {
  return def.name + "." + m.name;
}

// Per-method state threaded through resolution and the fixpoint.
struct MethodState {
  const vm::ClassDef* cls = nullptr;
  const vm::MethodDef* def = nullptr;
  MethodId method;
  EffectSummary own;      // IR-local effects (plus implicit native bits)
  EffectSummary fixed;    // fixpoint: own ∪ all transitive callees
  std::vector<std::uint32_t> callees;  // global method indices, deduped
  bool implicit_device = false;        // device bit came from NativeEffect
  bool ir_calls = false;               // IR contains any call op
  bool ir_mutates = false;             // IR contains write/alloc ops
};

void poison(EffectSummary& s) {
  s.unknown = true;
  s.reads.set_unknown();
  s.writes.set_unknown();
  s.yields = true;
}

// Folds `src` (a callee summary) into `dst`; returns true if dst changed.
bool merge_summary(EffectSummary& dst, const EffectSummary& src) {
  const EffectSummary before = dst;
  if (src.unknown) poison(dst);
  dst.reads.merge(src.reads);
  dst.writes.merge(src.writes);
  std::vector<ClassId> merged;
  std::set_union(dst.allocs.begin(), dst.allocs.end(), src.allocs.begin(),
                 src.allocs.end(), std::back_inserter(merged));
  dst.allocs = std::move(merged);
  dst.device = dst.device || src.device;
  dst.yields = dst.yields || src.yields;
  return !(dst.reads == before.reads && dst.writes == before.writes &&
           dst.allocs == before.allocs && dst.device == before.device &&
           dst.yields == before.yields && dst.unknown == before.unknown);
}

}  // namespace

// ---------------------------------------------------------------- LocSet --

void LocSet::insert(Loc loc) {
  if (unknown_) return;
  if (loc.member == kAnyMember) {
    // The ⊤ row absorbs every specific member of the same (class, kind).
    std::erase_if(locs_, [&](const Loc& l) {
      return l.cls == loc.cls && l.kind == loc.kind && l.member != kAnyMember;
    });
  } else {
    const Loc top{loc.cls, loc.kind, kAnyMember};
    if (std::binary_search(locs_.begin(), locs_.end(), top)) return;
  }
  const auto it = std::lower_bound(locs_.begin(), locs_.end(), loc);
  if (it == locs_.end() || *it != loc) locs_.insert(it, loc);
}

void LocSet::merge(const LocSet& other) {
  if (other.unknown_) {
    set_unknown();
    return;
  }
  for (const Loc& l : other.locs_) insert(l);
}

bool LocSet::may_touch(const Loc& loc) const noexcept {
  if (unknown_) return true;
  return std::any_of(locs_.begin(), locs_.end(),
                     [&](const Loc& l) { return l.overlaps(loc); });
}

bool LocSet::touches_class(ClassId cls) const noexcept {
  if (unknown_) return true;
  return std::any_of(locs_.begin(), locs_.end(),
                     [&](const Loc& l) { return l.cls == cls; });
}

// ---------------------------------------------------------- VerifyReport --

std::size_t VerifyReport::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

const MethodFacts* VerifyReport::facts(ClassId cls,
                                       MethodId method) const noexcept {
  const auto it = std::lower_bound(
      methods.begin(), methods.end(), std::pair{cls, method},
      [](const MethodFacts& f, const std::pair<ClassId, MethodId>& key) {
        return std::pair{f.cls, f.method} < key;
      });
  if (it == methods.end() || it->cls != cls || it->method != method) {
    return nullptr;
  }
  return &*it;
}

std::string VerifyReport::summary() const {
  std::size_t pure = 0;
  std::size_t read_only = 0;
  for (const auto& f : methods) {
    if (f.summary.pure()) ++pure;
    if (f.summary.read_only()) ++read_only;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "aideverify: %zu methods (%zu with IR, %.0f%% coverage), "
                "%zu pure, %zu read-only, %zu store locs (%zu conflicts), "
                "%zu errors / %zu warnings",
                methods_total, methods_with_ir, ir_coverage() * 100.0, pure,
                read_only, matrix.store_locs.size(), matrix.conflicts.size(),
                errors(), warnings());
  return buf;
}

// ---------------------------------------------------------------- verify --

VerifyReport verify(const vm::ClassRegistry& registry) {
  return verify(registry, analyze(registry));
}

VerifyReport verify(const vm::ClassRegistry& registry, AnalysisReport base) {
  VerifyReport report;
  report.base = std::move(base);

  const auto classes = registry.classes();

  // Global method index: offsets[c] + method index.
  std::vector<std::uint32_t> offsets(classes.size() + 1, 0);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    offsets[c + 1] =
        offsets[c] + static_cast<std::uint32_t>(classes[c].methods.size());
  }
  const std::uint32_t n_methods = offsets[classes.size()];

  std::vector<MethodState> states(n_methods);
  std::vector<Diagnostic>& diags = report.diagnostics;

  // ---- pass 1: resolve IR, build own summaries + call edges --------------
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const vm::ClassDef& def = classes[c];
    for (std::size_t mi = 0; mi < def.methods.size(); ++mi) {
      const vm::MethodDef& m = def.methods[mi];
      MethodState& st = states[offsets[c] + mi];
      st.cls = &def;
      st.def = &m;
      st.method = MethodId{static_cast<std::uint32_t>(mi)};
      ++report.methods_total;
      if (m.has_ir) ++report.methods_with_ir;

      bool resolve_failed = false;
      for (const vm::EffectOp& op : m.ir) {
        const std::string_view what = vm::to_string(op.kind);
        if (op.kind == vm::EffectOpKind::yield) {
          st.own.yields = true;
          continue;
        }
        if (!registry.contains(op.cls)) {
          diags.push_back(make_diag(
              Severity::error, Rule::ir_unknown_target, def,
              "method '" + m.name + "': IR " + std::string(what) +
                  " targets unknown class '" + op.cls + "'"));
          resolve_failed = true;
          continue;
        }
        const ClassId tid = registry.find(op.cls);
        const vm::ClassDef& target = registry.get(tid);
        switch (op.kind) {
          case vm::EffectOpKind::read_field:
          case vm::EffectOpKind::write_field: {
            std::uint32_t member = kAnyMember;
            if (op.member != "*") {
              const FieldId fid = target.find_field(op.member);
              if (!fid.valid()) {
                diags.push_back(make_diag(
                    Severity::error, Rule::ir_unknown_target, def,
                    "method '" + m.name + "': IR " + std::string(what) +
                        " targets unknown field '" + target.name + "." +
                        op.member + "'"));
                resolve_failed = true;
                break;
              }
              member = fid.value();
              if (op.kind == vm::EffectOpKind::write_field &&
                  !op.value_type.empty()) {
                const vm::FieldDef& fd = target.fields[member];
                if (!registry.contains(op.value_type)) {
                  diags.push_back(make_diag(
                      Severity::error, Rule::ir_unknown_target, def,
                      "method '" + m.name + "': IR write-field stores "
                      "values of unknown class '" + op.value_type + "'"));
                  resolve_failed = true;
                } else if (!fd.type.empty() && fd.type != op.value_type) {
                  diags.push_back(make_diag(
                      Severity::error, Rule::field_type_drift, def,
                      "method '" + m.name + "' stores '" + op.value_type +
                          "' refs into field '" + target.name + "." +
                          op.member + "' declared as '" + fd.type + "'"));
                } else if (fd.type.empty() &&
                           !is_builtin_name(op.value_type)) {
                  diags.push_back(make_diag(
                      Severity::info, Rule::field_type_drift, def,
                      "field '" + target.name + "." + op.member +
                          "' is untyped but method '" + m.name +
                          "' stores '" + op.value_type +
                          "' refs into it (static graph understates)"));
                }
              }
            }
            const Loc loc{tid, LocKind::field, member};
            if (op.kind == vm::EffectOpKind::read_field) {
              st.own.reads.insert(loc);
            } else {
              st.own.writes.insert(loc);
              st.ir_mutates = true;
            }
            break;
          }
          case vm::EffectOpKind::read_static:
          case vm::EffectOpKind::write_static: {
            std::uint32_t slot = kAnyMember;
            if (op.member != "*") {
              slot = target.find_static(op.member);
              if (slot == vm::kInvalidStaticSlot) {
                diags.push_back(make_diag(
                    Severity::error, Rule::ir_unknown_target, def,
                    "method '" + m.name + "': IR " + std::string(what) +
                        " targets unknown static slot '" + target.name +
                        "." + op.member + "'"));
                resolve_failed = true;
                break;
              }
            }
            const Loc loc{tid, LocKind::static_slot, slot};
            if (op.kind == vm::EffectOpKind::read_static) {
              st.own.reads.insert(loc);
            } else {
              st.own.writes.insert(loc);
              st.ir_mutates = true;
            }
            break;
          }
          case vm::EffectOpKind::read_elems:
            st.own.reads.insert(Loc{tid, LocKind::elems, kAnyMember});
            break;
          case vm::EffectOpKind::write_elems:
            st.own.writes.insert(Loc{tid, LocKind::elems, kAnyMember});
            st.ir_mutates = true;
            break;
          case vm::EffectOpKind::alloc: {
            const auto it = std::lower_bound(st.own.allocs.begin(),
                                             st.own.allocs.end(), tid);
            if (it == st.own.allocs.end() || *it != tid) {
              st.own.allocs.insert(it, tid);
            }
            st.ir_mutates = true;
            break;
          }
          case vm::EffectOpKind::call: {
            st.ir_calls = true;
            const MethodId callee_id = target.find_method(op.member);
            if (!callee_id.valid()) {
              diags.push_back(make_diag(
                  Severity::error, Rule::ir_unknown_target, def,
                  "method '" + m.name + "': IR call targets unknown "
                  "method '" + target.name + "." + op.member + "'"));
              resolve_failed = true;
              break;
            }
            const vm::MethodDef& callee =
                target.methods[callee_id.value()];
            if (op.argc >= 0 && callee.declared_arity >= 0 &&
                op.argc != callee.declared_arity) {
              diags.push_back(make_diag(
                  Severity::error, Rule::arity_drift, def,
                  "method '" + m.name + "' invokes '" +
                      method_ref(target, callee) + "' with " +
                      std::to_string(op.argc) +
                      " args but its declared arity is " +
                      std::to_string(callee.declared_arity)));
            }
            const std::uint32_t gi =
                offsets[tid.value()] + callee_id.value();
            if (std::find(st.callees.begin(), st.callees.end(), gi) ==
                st.callees.end()) {
              st.callees.push_back(gi);
            }
            break;
          }
          case vm::EffectOpKind::yield:
            break;  // handled above
        }
      }

      // Implicit effects of natives: stateless or declared-pure ⇒ pure by
      // declaration; device_state ⇒ device effect + yield point;
      // undeclared ⇒ ⊤.
      if (m.kind == vm::MethodKind::native) {
        if (!m.stateless && m.effect != vm::NativeEffect::pure) {
          if (m.effect == vm::NativeEffect::device_state) {
            st.own.device = true;
            st.own.yields = true;
            st.implicit_device = true;
          } else {
            // Base analyze() already warns undeclared-native-effect; the
            // summary is ⊤ regardless of any IR.
            poison(st.own);
          }
        }
      } else if (!m.has_ir) {
        poison(st.own);
      }
      if (resolve_failed) poison(st.own);
      st.fixed = st.own;
    }
  }

  // ---- pass 2: interprocedural fixpoint over the call graph --------------
  std::vector<std::vector<std::uint32_t>> callers(n_methods);
  for (std::uint32_t gi = 0; gi < n_methods; ++gi) {
    for (const std::uint32_t callee : states[gi].callees) {
      callers[callee].push_back(gi);
    }
  }
  std::deque<std::uint32_t> worklist;
  std::vector<bool> queued(n_methods, true);
  for (std::uint32_t gi = 0; gi < n_methods; ++gi) worklist.push_back(gi);
  while (!worklist.empty()) {
    const std::uint32_t gi = worklist.front();
    worklist.pop_front();
    queued[gi] = false;
    bool changed = false;
    for (const std::uint32_t callee : states[gi].callees) {
      changed |= merge_summary(states[gi].fixed, states[callee].fixed);
    }
    if (changed) {
      for (const std::uint32_t caller : callers[gi]) {
        if (!queued[caller]) {
          queued[caller] = true;
          worklist.push_back(caller);
        }
      }
    }
  }

  // ---- pass 3: audits over the fixpoint ----------------------------------
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const vm::ClassDef& def = classes[c];
    if (is_builtin(def)) continue;

    bool all_known = true;
    bool any_device = false;
    for (std::size_t mi = 0; mi < def.methods.size(); ++mi) {
      const vm::MethodDef& m = def.methods[mi];
      const MethodState& st = states[offsets[c] + mi];
      all_known = all_known && !st.fixed.unknown;
      any_device = any_device || st.fixed.device;

      if (!m.has_ir &&
          !(m.kind == vm::MethodKind::native && m.stateless)) {
        // Stateless natives are pure by declaration; everything else
        // without IR is a ⊤ summary that poisons its callers.
        diags.push_back(make_diag(
            Severity::info, Rule::missing_ir, def,
            "method '" + m.name +
                "' declares no effect IR; its summary is unknown (⊤)"));
      }
      const bool declared_pure =
          m.kind == vm::MethodKind::native &&
          (m.stateless || m.effect == vm::NativeEffect::pure);
      if (declared_pure) {
        if (st.fixed.unknown) {
          diags.push_back(make_diag(
              Severity::warning, Rule::effect_drift, def,
              "pure-declared native '" + m.name +
                  "' calls into unverified code; purity cannot be proven"));
        } else if (!st.fixed.pure()) {
          std::string how;
          if (!st.fixed.writes.empty()) how = "writes state";
          else if (!st.fixed.allocs.empty()) how = "allocates";
          else how = "reaches device state";
          diags.push_back(make_diag(
              Severity::error, Rule::effect_drift, def,
              "native '" + m.name +
                  "' is declared stateless/pure but its inferred summary " +
                  how));
        }
      }
      // A stateful native declared NativeEffect::pure still pins its class
      // (has_stateful_native only looks at the stateless flag) — if purity
      // holds, the stateless flag is the honest declaration.
      if (m.kind == vm::MethodKind::native && !m.stateless &&
          m.effect == vm::NativeEffect::pure && st.fixed.pure()) {
        diags.push_back(make_diag(
            Severity::info, Rule::stateless_candidate, def,
            "stateful native '" + m.name +
                "' is declared and proven pure; marking it stateless would "
                "unpin the class"));
      }
    }

    if ((def.pin_reason == vm::PinReason::ui ||
         def.pin_reason == vm::PinReason::user_pinned) &&
        !def.has_stateful_native() && all_known && !any_device &&
        !def.methods.empty()) {
      diags.push_back(make_diag(
          Severity::info, Rule::pin_unjustified, def,
          "pinned '" + std::string(vm::to_string(def.pin_reason)) +
              "' but every method is proven free of device effects"));
    }
  }

  // ---- pass 4: facts, conflict matrix, hints -----------------------------
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const vm::ClassDef& def = classes[c];
    for (std::size_t mi = 0; mi < def.methods.size(); ++mi) {
      const MethodState& st = states[offsets[c] + mi];
      MethodFacts f;
      f.cls = def.id;
      f.method = MethodId{static_cast<std::uint32_t>(mi)};
      f.class_name = def.name;
      f.method_name = def.methods[mi].name;
      f.has_ir = def.methods[mi].has_ir;
      f.summary = st.fixed;
      report.methods.push_back(std::move(f));
    }
  }

  ConflictMatrix& matrix = report.matrix;
  for (const MethodFacts& f : report.methods) {
    if (f.summary.unknown || f.summary.writes.unknown()) {
      matrix.any_unknown_writes = true;
      continue;
    }
    for (const Loc& l : f.summary.writes.locs()) {
      matrix.store_locs.push_back(l);
    }
  }
  std::sort(matrix.store_locs.begin(), matrix.store_locs.end());
  matrix.store_locs.erase(
      std::unique(matrix.store_locs.begin(), matrix.store_locs.end()),
      matrix.store_locs.end());
  for (std::uint32_t i = 0; i < matrix.store_locs.size(); ++i) {
    for (std::uint32_t j = i + 1; j < matrix.store_locs.size(); ++j) {
      if (matrix.store_locs[i].overlaps(matrix.store_locs[j])) {
        matrix.conflicts.emplace_back(i, j);
      }
    }
  }

  report.hints = report.base.hints;
  for (const MethodFacts& f : report.methods) {
    if (f.summary.pure()) {
      report.hints.replay_safe.emplace_back(f.cls, f.method);
    }
  }
  // Encapsulated writes: no method of a *different* class writes this
  // class's instance fields. Requires globally known writes.
  if (!matrix.any_unknown_writes) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const vm::ClassDef& def = classes[c];
      if (is_builtin(def)) continue;
      if (std::binary_search(report.hints.never_migrate.begin(),
                             report.hints.never_migrate.end(), def.id)) {
        continue;
      }
      bool encapsulated = true;
      for (const MethodFacts& f : report.methods) {
        if (f.cls == def.id) continue;
        for (const Loc& l : f.summary.writes.locs()) {
          if (l.cls == def.id && l.kind == LocKind::field) {
            encapsulated = false;
            break;
          }
        }
        if (!encapsulated) break;
      }
      if (encapsulated) report.hints.prefetch_eligible.push_back(def.id);
    }
  }

  // Same presentation order as analyze(): errors first, stable by class.
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.severity != b.severity) {
                       return a.severity > b.severity;
                     }
                     return a.cls < b.cls;
                   });
  return report;
}

// ----------------------------------------------------------- BatchSafety --

BatchSafety::BatchSafety(const VerifyReport& report)
    : any_unknown_writes_(report.matrix.any_unknown_writes) {
  for (const MethodFacts& f : report.methods) {
    const std::size_t c = f.cls.value();
    const std::size_t mi = f.method.value();
    if (known_.size() <= c) known_.resize(c + 1);
    if (known_[c].size() <= mi) known_[c].resize(mi + 1, false);
    known_[c][mi] = !f.summary.unknown;
  }
}

bool BatchSafety::store_deferrable() const noexcept {
  // With any ⊤ writer in the program the analysis cannot bound who else
  // observes a location; nothing is provably deferrable.
  return !any_unknown_writes_;
}

bool BatchSafety::invoke_accepts_riders(ClassId cls,
                                        MethodId method) const noexcept {
  const std::size_t c = cls.value();
  if (c >= known_.size()) return false;
  const std::size_t m = method.value();
  return m < known_[c].size() && known_[c][m];
}

// ------------------------------------------------------------ startup gates

StartupGates run_startup_gates(const vm::ClassRegistry& registry,
                               bool static_analysis, bool effect_verify) {
  const auto log_warnings = [](const char* tool, const auto& diags) {
    for (const Diagnostic& d : diags) {
      if (d.severity == Severity::warning) AIDE_LOG_WARN(tool, d.format());
    }
  };
  StartupGates gates;
  if (static_analysis) {
    gates.analysis = analyze(registry);
    log_warnings("aidelint", gates.analysis->diagnostics);
    if (!gates.analysis->ok()) throw AnalysisError(*gates.analysis);
  }
  if (effect_verify) {
    gates.verify =
        verify(registry, gates.analysis ? *gates.analysis : analyze(registry));
    log_warnings("aideverify", gates.verify->diagnostics);
    if (gates.verify->count(Severity::error) > 0) {
      auto merged = gates.verify->base;
      merged.diagnostics = gates.verify->diagnostics;
      throw AnalysisError(merged);
    }
    if (gates.verify->methods_total > 0 &&
        gates.verify->methods_with_ir == gates.verify->methods_total) {
      gates.batch_safety.emplace(*gates.verify);
    }
  }
  return gates;
}

}  // namespace aide::analysis
