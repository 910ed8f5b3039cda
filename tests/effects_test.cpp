// Tests for aideverify (interprocedural effect inference): the Loc/LocSet
// abstract domain, the per-method fixpoint, every audit rule against an
// injected violation, the pairwise store-conflict matrix, the BatchSafety
// oracle verdicts, hint export, and full-coverage runs over the five paper
// applications.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/effects.hpp"
#include "analysis/report_io.hpp"
#include "apps/apps.hpp"
#include "vm/klass.hpp"

namespace aide::analysis {
namespace {

using vm::ClassBuilder;
using vm::ClassRegistry;
using vm::NativeEffect;
using vm::PinReason;

vm::MethodBody noop() {
  return [](vm::Vm&, vm::ObjectRef, auto) { return vm::Value{}; };
}

bool has_rule(const std::vector<Diagnostic>& ds, Rule rule) {
  return std::any_of(ds.begin(), ds.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

std::size_t rule_count(const std::vector<Diagnostic>& ds, Rule rule) {
  return static_cast<std::size_t>(
      std::count_if(ds.begin(), ds.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

const MethodFacts& facts_of(const VerifyReport& r, const ClassRegistry& reg,
                            std::string_view cls, std::string_view method) {
  const ClassId c = reg.find(cls);
  const MethodId m = reg.get(c).find_method(method);
  const MethodFacts* f = r.facts(c, m);
  EXPECT_NE(f, nullptr) << cls << "." << method;
  return *f;
}

// --- abstract domain ---------------------------------------------------------

TEST(LocSetTest, AnyMemberSubsumesConcreteMembers) {
  LocSet s;
  s.insert({ClassId{3}, LocKind::field, 0});
  s.insert({ClassId{3}, LocKind::field, 1});
  EXPECT_EQ(s.locs().size(), 2u);

  s.insert({ClassId{3}, LocKind::field, kAnyMember});
  ASSERT_EQ(s.locs().size(), 1u);  // absorbed both rows
  EXPECT_EQ(s.locs()[0].member, kAnyMember);

  s.insert({ClassId{3}, LocKind::field, 7});  // already covered
  EXPECT_EQ(s.locs().size(), 1u);
  EXPECT_TRUE(s.may_touch({ClassId{3}, LocKind::field, 7}));
  EXPECT_FALSE(s.may_touch({ClassId{3}, LocKind::static_slot, 7}));
  EXPECT_FALSE(s.may_touch({ClassId{4}, LocKind::field, 7}));
}

TEST(LocSetTest, TopTouchesEverything) {
  LocSet s;
  s.insert({ClassId{1}, LocKind::field, 0});
  s.set_unknown();
  EXPECT_TRUE(s.unknown());
  EXPECT_TRUE(s.may_touch({ClassId{9}, LocKind::elems, kAnyMember}));
  EXPECT_FALSE(s.empty());
}

TEST(LocTest, OverlapIsClassAndKindScoped) {
  const Loc a{ClassId{2}, LocKind::field, 0};
  const Loc b{ClassId{2}, LocKind::field, 1};
  const Loc any{ClassId{2}, LocKind::field, kAnyMember};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_TRUE(a.overlaps(a));
  EXPECT_TRUE(any.overlaps(a));
  EXPECT_TRUE(b.overlaps(any));
  EXPECT_FALSE(any.overlaps({ClassId{2}, LocKind::static_slot, 0}));
}

// --- fixpoint inference ------------------------------------------------------

// A mutually recursive pair whose effects must still reach a fixpoint, plus
// a caller that inherits the whole cycle's summary transitively.
ClassRegistry recursive_registry() {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Node")
                         .entry()
                         .field("next", "Node")
                         .field("val")
                         .method("even", noop())
                         .reads("Node", "next")
                         .invokes("Node", "odd", 1)
                         .method("odd", noop())
                         .writes("Node", "val")
                         .invokes("Node", "even", 1)
                         .build());
  reg.register_class(ClassBuilder("Walker")
                         .entry()
                         .method("walk", noop())
                         .invokes("Node", "even", 1)
                         .build());
  return reg;
}

TEST(FixpointTest, RecursiveCycleConverges) {
  const ClassRegistry reg = recursive_registry();
  const VerifyReport r = verify(reg);
  EXPECT_EQ(r.count(Severity::error), 0u) << r.summary();

  const auto& even = facts_of(r, reg, "Node", "even");
  const auto& walk = facts_of(r, reg, "Walker", "walk");
  // The cycle's joined summary: reads next, writes val, fully known.
  EXPECT_FALSE(even.summary.unknown);
  EXPECT_TRUE(even.summary.reads.may_touch(
      {reg.find("Node"), LocKind::field, 0}));
  EXPECT_TRUE(even.summary.writes.may_touch(
      {reg.find("Node"), LocKind::field, 1}));
  // The transitive caller inherits it all.
  EXPECT_EQ(walk.summary.reads, even.summary.reads);
  EXPECT_EQ(walk.summary.writes, even.summary.writes);
  EXPECT_FALSE(walk.summary.pure());
}

TEST(FixpointTest, MissingIrPoisonsTransitiveCallers) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Opaque")
                         .entry()
                         .method("mystery", noop())  // no IR
                         .build());
  reg.register_class(ClassBuilder("Caller")
                         .entry()
                         .method("go", noop())
                         .invokes("Opaque", "mystery", 0)
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::missing_ir));
  const auto& go = facts_of(r, reg, "Caller", "go");
  EXPECT_TRUE(go.summary.unknown);
  EXPECT_FALSE(go.summary.pure());
  EXPECT_TRUE(r.matrix.any_unknown_writes);
  EXPECT_LT(r.ir_coverage(), 1.0);
}

TEST(FixpointTest, PureAndReadOnlyClassification) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("C")
                         .entry()
                         .field("x")
                         .method("getX", noop())
                         .reads("C", "x")
                         .method("fresh", noop())
                         .reads("C", "x")
                         .allocates("C")
                         .method("setX", noop())
                         .writes("C", "x")
                         .method("nothing", noop())
                         .no_effects()
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(facts_of(r, reg, "C", "getX").summary.pure());
  EXPECT_FALSE(facts_of(r, reg, "C", "fresh").summary.pure());
  EXPECT_TRUE(facts_of(r, reg, "C", "fresh").summary.read_only());
  EXPECT_FALSE(facts_of(r, reg, "C", "setX").summary.read_only());
  EXPECT_TRUE(facts_of(r, reg, "C", "nothing").summary.pure());
  EXPECT_EQ(r.methods_with_ir, r.methods_total);
}

TEST(FixpointTest, DeviceNativeImplication) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Lcd")
                         .entry()
                         .native_method("draw", noop())
                         .effect(NativeEffect::device_state)
                         .no_effects()
                         .build());
  reg.register_class(ClassBuilder("Ui")
                         .entry()
                         .method("paint", noop())
                         .invokes("Lcd", "draw", 0)
                         .build());
  const VerifyReport r = verify(reg);
  // device_state implies a device effect and a yield point, transitively.
  EXPECT_TRUE(facts_of(r, reg, "Lcd", "draw").summary.device);
  EXPECT_TRUE(facts_of(r, reg, "Lcd", "draw").summary.yields);
  EXPECT_TRUE(facts_of(r, reg, "Ui", "paint").summary.device);
  EXPECT_FALSE(facts_of(r, reg, "Ui", "paint").summary.pure());
}

// --- audit rules: one injected violation each --------------------------------

TEST(AuditRuleTest, IrUnknownTargetIsError) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("A")
                         .entry()
                         .method("f", noop())
                         .reads("NoSuchClass", "x")
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::ir_unknown_target));
  EXPECT_GT(r.count(Severity::error), 0u);
  EXPECT_EQ(exit_code(r), 2);
}

TEST(AuditRuleTest, IrUnknownMemberIsError) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("A")
                         .entry()
                         .field("x")
                         .method("f", noop())
                         .writes("A", "nope")
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::ir_unknown_target));
}

TEST(AuditRuleTest, EffectDriftStatelessNativeThatWritesIsError) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Sneaky")
                         .entry()
                         .field("state")
                         .native_method("calc", noop(), /*stateless=*/true,
                                        /*is_static=*/false)
                         .writes("Sneaky", "state")
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::effect_drift));
  EXPECT_EQ(exit_code(r), 2);
}

TEST(AuditRuleTest, EffectDriftPureNativeThatWritesIsError) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Sneaky")
                         .entry()
                         .field("state")
                         .native_method("calc", noop())
                         .effect(NativeEffect::pure)
                         .writes("Sneaky", "state")
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::effect_drift));
}

TEST(AuditRuleTest, ArityDriftIsError) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Callee")
                         .entry()
                         .method("g", noop())
                         .arity(2)
                         .no_effects()
                         .build());
  reg.register_class(ClassBuilder("Caller")
                         .entry()
                         .method("f", noop())
                         .invokes("Callee", "g", 3)  // wrong argc
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::arity_drift));
  EXPECT_EQ(exit_code(r), 2);
}

// An invoke of an unknown class, and of an unknown method on a known one.
TEST(AuditRuleTest, InvokeOfUnknownTargetIsError) {
  const std::pair<const char*, const char*> cases[] = {
      {"Missing", "unknown class 'Missing'"},
      {"Target", "unknown method 'Target.nope'"}};
  for (const auto& [target, what] : cases) {
    ClassRegistry reg;
    reg.register_class(ClassBuilder("Target")
                           .entry()
                           .method("run", noop())
                           .no_effects()
                           .build());
    reg.register_class(ClassBuilder("Caller")
                           .entry()
                           .method("f", noop())
                           .invokes(target, "nope", 0)
                           .build());
    const VerifyReport r = verify(reg);
    ASSERT_EQ(rule_count(r.diagnostics, Rule::ir_unknown_target), 1u)
        << target;
    const auto d = std::find_if(
        r.diagnostics.begin(), r.diagnostics.end(),
        [](const Diagnostic& x) { return x.rule == Rule::ir_unknown_target; });
    EXPECT_NE(d->message.find(what), std::string::npos) << d->message;
    EXPECT_EQ(exit_code(r), 2);
  }
}

TEST(AuditRuleTest, ArityAgreementAndUndeclaredAritiesAreClean) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Target")
                         .entry()
                         .method("run", noop())
                         .arity(2)
                         .no_effects()
                         .method("any", noop())  // arity undeclared
                         .no_effects()
                         .build());
  reg.register_class(ClassBuilder("Caller")
                         .entry()
                         .method("f", noop())
                         .invokes("Target", "run", 2)  // matches
                         .invokes("Target", "run")     // argc unknown
                         .invokes("Target", "any", 7)  // target undeclared
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_FALSE(has_rule(r.diagnostics, Rule::arity_drift));
  EXPECT_EQ(r.errors(), 0u);
}

TEST(AuditRuleTest, FieldTypeDriftIsError) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Wheel").entry().build());
  reg.register_class(ClassBuilder("Engine").entry().build());
  reg.register_class(ClassBuilder("Car")
                         .entry()
                         .field("wheel", "Wheel")
                         .method("swap", noop())
                         .writes("Car", "wheel", "Engine")  // contradicts type
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::field_type_drift));
  EXPECT_EQ(exit_code(r), 2);
}

TEST(AuditRuleTest, RefIntoUntypedFieldIsInfoOnly) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Thing").entry().build());
  reg.register_class(ClassBuilder("Box")
                         .entry()
                         .field("item")  // untyped
                         .method("fill", noop())
                         .writes("Box", "item", "Thing")
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::field_type_drift));
  EXPECT_EQ(r.count(Severity::error), 0u);
}

TEST(AuditRuleTest, PinUnjustifiedIsInfo) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Label")
                         .entry()
                         .pin(PinReason::ui)
                         .field("text")
                         .method("get", noop())
                         .reads("Label", "text")
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::pin_unjustified));
  EXPECT_EQ(r.count(Severity::error), 0u);
}

TEST(AuditRuleTest, StatelessCandidateIsInfo) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Mathy")
                         .entry()
                         .native_method("hypot", noop())
                         .effect(NativeEffect::pure)
                         .no_effects()
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(has_rule(r.diagnostics, Rule::stateless_candidate));
  EXPECT_EQ(r.count(Severity::error), 0u);
}

// --- conflict matrix ---------------------------------------------------------

TEST(ConflictMatrixTest, DisjointStoresCommuteAliasedOnesDoNot) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("S")
                         .entry()
                         .field("a")
                         .field("b")
                         .method("setA", noop())
                         .writes("S", "a")
                         .method("setB", noop())
                         .writes("S", "b")
                         .build());
  const VerifyReport r = verify(reg);
  ASSERT_FALSE(r.matrix.any_unknown_writes);
  ASSERT_EQ(r.matrix.store_locs.size(), 2u);
  EXPECT_TRUE(r.matrix.conflicts.empty());
  EXPECT_FALSE(r.matrix.store_locs[0].overlaps(r.matrix.store_locs[1]));
  EXPECT_TRUE(r.matrix.store_locs[0].overlaps(r.matrix.store_locs[0]));
}

TEST(ConflictMatrixTest, AnyMemberRowConflictsWithWholeClass) {
  ClassRegistry reg;
  // writes_elems on the same array class from two methods: one store loc,
  // self-conflicting (same Loc overlaps itself), so no i<j pair — but a
  // field row and its kAnyMember row must conflict.
  reg.register_class(ClassBuilder("T")
                         .entry()
                         .field("a")
                         .field("b")
                         .method("setA", noop())
                         .writes("T", "a")
                         .method("wipe", noop())
                         .writes("T", "a")
                         .writes("T", "b")
                         .build());
  const VerifyReport r = verify(reg);
  ASSERT_FALSE(r.matrix.any_unknown_writes);
  // Distinct locs: T.a and T.b — disjoint members commute.
  ASSERT_EQ(r.matrix.store_locs.size(), 2u);
  EXPECT_TRUE(r.matrix.conflicts.empty());

  const Loc any{reg.find("T"), LocKind::field, kAnyMember};
  EXPECT_TRUE(any.overlaps(r.matrix.store_locs[0]));
}

TEST(ConflictMatrixTest, UnknownWritesPoisonEverything) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("U")
                         .entry()
                         .field("x")
                         .method("noir", noop())  // no IR: ⊤ writes
                         .method("setX", noop())
                         .writes("U", "x")
                         .build());
  const VerifyReport r = verify(reg);
  EXPECT_TRUE(r.matrix.any_unknown_writes);  // nothing commutes under ⊤
}

// --- BatchSafety oracle ------------------------------------------------------

ClassRegistry oracle_registry() {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("P")
                         .entry()
                         .field("a")
                         .field("b")
                         .method("setA", noop())
                         .writes("P", "a")
                         .method("getA", noop())
                         .reads("P", "a")
                         .build());
  return reg;
}

TEST(BatchSafetyTest, FullCoverageVerdicts) {
  const ClassRegistry reg = oracle_registry();
  const VerifyReport r = verify(reg);
  ASSERT_EQ(r.methods_with_ir, r.methods_total);
  const BatchSafety oracle(r);
  const ClassId p = reg.find("P");
  const MethodId set_a = reg.get(p).find_method("setA");

  EXPECT_TRUE(oracle.store_deferrable());
  EXPECT_TRUE(oracle.invoke_accepts_riders(p, set_a));
  // Out-of-range ids answer conservatively.
  EXPECT_FALSE(oracle.invoke_accepts_riders(ClassId{1000}, MethodId{0}));
}

TEST(BatchSafetyTest, UnknownWritesRefuseAllDeferral) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Q")
                         .entry()
                         .field("x")
                         .method("dark", noop())  // no IR
                         .build());
  const VerifyReport r = verify(reg);
  const BatchSafety oracle(r);
  const ClassId q = reg.find("Q");
  EXPECT_FALSE(oracle.store_deferrable());
  EXPECT_FALSE(
      oracle.invoke_accepts_riders(q, reg.get(q).find_method("dark")));
}

// --- hints export ------------------------------------------------------------

TEST(HintsExportTest, ReplaySafeAndPrefetchEligible) {
  ClassRegistry reg;
  // Pure getter → replay_safe. Encapsulated writes → prefetch_eligible.
  reg.register_class(ClassBuilder("Enc")
                         .entry()
                         .field("v")
                         .method("get", noop())
                         .reads("Enc", "v")
                         .method("set", noop())
                         .writes("Enc", "v")
                         .build());
  // Leak writes Enc's field from outside: Enc loses eligibility... on a
  // second registry, to keep this one clean.
  const VerifyReport clean = verify(reg);
  const ClassId enc = reg.find("Enc");
  const MethodId get = reg.get(enc).find_method("get");
  EXPECT_TRUE(std::binary_search(clean.hints.replay_safe.begin(),
                                 clean.hints.replay_safe.end(),
                                 std::make_pair(enc, get)));
  EXPECT_TRUE(std::binary_search(clean.hints.prefetch_eligible.begin(),
                                 clean.hints.prefetch_eligible.end(), enc));

  reg.register_class(ClassBuilder("Leak")
                         .entry()
                         .method("poke", noop())
                         .writes("Enc", "v")
                         .build());
  const VerifyReport leaked = verify(reg);
  EXPECT_FALSE(std::binary_search(leaked.hints.prefetch_eligible.begin(),
                                  leaked.hints.prefetch_eligible.end(), enc));
}

// --- the five applications ---------------------------------------------------

class AppsVerifyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AppsVerifyTest, FullCoverageNoDrift) {
  ClassRegistry reg;
  apps::app_by_name(GetParam()).register_classes(reg);
  const VerifyReport r = verify(reg);
  // 100% of declared metadata audited: every method carries effect IR...
  EXPECT_EQ(r.methods_with_ir, r.methods_total) << r.summary();
  EXPECT_EQ(r.ir_coverage(), 1.0);
  EXPECT_GT(r.methods_total, 0u);
  // ...and no declaration drifts from the inferred facts.
  EXPECT_EQ(r.count(Severity::error), 0u) << r.summary();
  EXPECT_EQ(r.count(Severity::warning), 0u) << r.summary();
  EXPECT_EQ(rule_count(r.diagnostics, Rule::missing_ir), 0u);
  EXPECT_EQ(exit_code(r), 0);
  // The conflict matrix is fully known — deferred stores are provable.
  EXPECT_FALSE(r.matrix.any_unknown_writes);
  EXPECT_FALSE(r.matrix.store_locs.empty());
  // Inference found real purity to export.
  EXPECT_FALSE(r.hints.replay_safe.empty());
}

TEST_P(AppsVerifyTest, Deterministic) {
  ClassRegistry reg;
  apps::app_by_name(GetParam()).register_classes(reg);
  const VerifyReport a = verify(reg);
  const VerifyReport b = verify(reg);
  std::ostringstream ja;
  std::ostringstream jb;
  render_json(ja, reg, a);
  render_json(jb, reg, b);
  EXPECT_EQ(ja.str(), jb.str());
}

INSTANTIATE_TEST_SUITE_P(Apps, AppsVerifyTest,
                         ::testing::Values("JavaNote", "Dia", "Biomer",
                                           "Voxel", "Tracer"));

}  // namespace
}  // namespace aide::analysis
