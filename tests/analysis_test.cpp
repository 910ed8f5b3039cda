// Tests for the static partition-safety analyzer (aidelint): pinned-closure
// computation, each lint rule (positive and negative), hint export, graph
// pre-contraction in the partitioner, and the platform's startup gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/analyzer.hpp"
#include "apps/apps.hpp"
#include "graph/exec_graph.hpp"
#include "partition/partitioner.hpp"
#include "platform/platform.hpp"
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

// Device (pinned stateful native) <- Holder (typed field) <- Outer (typed
// field); Free is unrelated and migratable.
ClassRegistry closure_registry() {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Device")
                         .source("dev.cpp")
                         .entry()
                         .native_method("poke", noop())
                         .arity(0)
                         .effect(NativeEffect::device_state)
                         .build());
  reg.register_class(ClassBuilder("Holder")
                         .entry()
                         .field("dev", "Device")
                         .build());
  reg.register_class(
      ClassBuilder("Outer").entry().field("h", "Holder").build());
  reg.register_class(
      ClassBuilder("Free").entry().migratable().field("n").build());
  return reg;
}

bool has_rule(const AnalysisReport& r, Rule rule) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

TEST(PinnedClosureTest, PropagatesThroughTypedFields) {
  const auto reg = closure_registry();
  const auto report = analyze(reg);
  ASSERT_TRUE(report.ok());

  const ClassId device = reg.find("Device");
  EXPECT_TRUE(report.is_pin_root(device));
  EXPECT_TRUE(report.in_closure(device));
  // Transitive: Holder holds Device, Outer holds Holder.
  EXPECT_TRUE(report.in_closure(reg.find("Holder")));
  EXPECT_TRUE(report.in_closure(reg.find("Outer")));
  EXPECT_FALSE(report.in_closure(reg.find("Free")));
  EXPECT_FALSE(report.is_pin_root(reg.find("Holder")));

  // never_migrate is exactly the closure, sorted.
  EXPECT_TRUE(std::is_sorted(report.hints.never_migrate.begin(),
                             report.hints.never_migrate.end()));
  EXPECT_EQ(report.hints.never_migrate.size(), 3u);
}

TEST(PinnedClosureTest, ExplicitPinReasonIsRoot) {
  ClassRegistry reg;
  reg.register_class(
      ClassBuilder("Ui").entry().pin(PinReason::ui).field("x").build());
  const auto report = analyze(reg);
  EXPECT_TRUE(report.is_pin_root(reg.find("Ui")));
  EXPECT_EQ(reg.get(reg.find("Ui")).effective_pin_reason(), PinReason::ui);
}

// The acceptance-criteria injection: a migratable class holding a field of a
// pinned type must produce a class-anchored ERROR diagnostic.
TEST(LintRuleTest, MigratableHoldingPinnedTypeIsError) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Screen")
                         .entry()
                         .native_method("blit", noop())
                         .effect(NativeEffect::device_state)
                         .build());
  reg.register_class(ClassBuilder("Engine")
                         .source("engine.cpp")
                         .entry()
                         .migratable()
                         .field("screen", "Screen")
                         .build());
  const auto report = analyze(reg);
  EXPECT_FALSE(report.ok());

  const auto it = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) {
        return d.rule == Rule::pinned_field_in_migratable;
      });
  ASSERT_NE(it, report.diagnostics.end());
  EXPECT_EQ(it->severity, Severity::error);
  EXPECT_EQ(it->cls, reg.find("Engine"));
  EXPECT_EQ(it->class_name, "Engine");
  // The formatted diagnostic is anchored to the class and its source file.
  EXPECT_NE(it->format().find("engine.cpp"), std::string::npos);
  EXPECT_NE(it->format().find("Engine"), std::string::npos);
  EXPECT_NE(it->format().find("screen"), std::string::npos);
}

TEST(LintRuleTest, MigratableDeclaredOnPinnedClassIsError) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Confused")
                         .entry()
                         .migratable()
                         .pin(PinReason::user_pinned)
                         .build());
  const auto report = analyze(reg);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, Rule::pinned_field_in_migratable));
}

TEST(LintRuleTest, MigratableOutsideClosureIsClean) {
  const auto report = analyze(closure_registry());
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(has_rule(report, Rule::pinned_field_in_migratable));
}

// Call edges come from the methods' effect IR: a cross-class invoke is a
// static reference, a same-class one is not, and one whose class does not
// resolve adds nothing (aideverify reports it).
TEST(LintRuleTest, CallEdgesComeFromMethodIr) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Callee")
                         .method("run", noop())
                         .arity(0)
                         .no_effects()
                         .build());
  reg.register_class(ClassBuilder("Caller")
                         .entry()
                         .method("go", noop())
                         .invokes("Callee", "run", 0)
                         .invokes("Caller", "go")
                         .invokes("Ghost", "boo")
                         .build());
  const auto report = analyze(reg);
  const ClassId caller = reg.find("Caller");
  const ClassId callee = reg.find("Callee");
  const std::vector<StaticEdge> expected{
      StaticEdge{caller, callee, RefKind::call}};
  EXPECT_EQ(report.edges, expected);
  // Callee, reached only through Caller's IR, is not dead, and the
  // unresolvable invoke is no lint finding.
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(LintRuleTest, UndeclaredNativeEffectWarns) {
  ClassRegistry reg;
  reg.register_class(
      ClassBuilder("Sloppy").entry().native_method("touch", noop()).build());
  const auto report = analyze(reg);
  EXPECT_TRUE(report.ok());  // warning, not error
  EXPECT_TRUE(has_rule(report, Rule::undeclared_native_effect));

  ClassRegistry good;
  good.register_class(ClassBuilder("Tidy")
                          .entry()
                          .native_method("touch", noop())
                          .effect(NativeEffect::device_state)
                          .build());
  EXPECT_FALSE(has_rule(analyze(good), Rule::undeclared_native_effect));
}

TEST(LintRuleTest, StatelessNativeNeedsNoEffectDeclaration) {
  ClassRegistry reg;
  reg.register_class(
      ClassBuilder("MathLike")
          .entry()
          .native_method("sqrt", noop(), /*stateless=*/true)
          .build());
  EXPECT_FALSE(has_rule(analyze(reg), Rule::undeclared_native_effect));
}

TEST(LintRuleTest, UnknownFieldTypeWarns) {
  ClassRegistry reg;
  reg.register_class(
      ClassBuilder("Typo").entry().field("x", "NoSuchClass").build());
  const auto report = analyze(reg);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(has_rule(report, Rule::unknown_field_type));
}

TEST(LintRuleTest, PinnedLeafWarnsUnlessEntry) {
  // A non-entry pinned class referenced only from outside the closure.
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Beeper")
                         .native_method("beep", noop())
                         .effect(NativeEffect::device_state)
                         .build());
  reg.register_class(ClassBuilder("Worker")
                         .entry()
                         .migratable()
                         .method("work", noop())
                         .invokes("Beeper", "beep")
                         .build());
  EXPECT_TRUE(has_rule(analyze(reg), Rule::pinned_leaf));

  // The same shape with the pinned class marked entry is clean: the driver
  // owns it, so crossing the cut to reach it is expected.
  ClassRegistry ok;
  ok.register_class(ClassBuilder("Beeper")
                        .entry()
                        .native_method("beep", noop())
                        .effect(NativeEffect::device_state)
                        .build());
  ok.register_class(ClassBuilder("Worker")
                        .entry()
                        .migratable()
                        .method("work", noop())
                        .invokes("Beeper", "beep")
                        .build());
  EXPECT_FALSE(has_rule(analyze(ok), Rule::pinned_leaf));
}

TEST(LintRuleTest, DeadClassIsInfoUnlessEntryOrReferenced) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Orphan").field("x").build());
  const auto report = analyze(reg);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(has_rule(report, Rule::dead_class));

  ClassRegistry used;
  used.register_class(ClassBuilder("Orphan").field("x").build());
  used.register_class(
      ClassBuilder("User").entry().references("Orphan").build());
  EXPECT_FALSE(has_rule(analyze(used), Rule::dead_class));
}

TEST(HintsTest, Deterministic) {
  const auto reg = closure_registry();
  const auto a = analyze(reg);
  const auto b = analyze(reg);
  EXPECT_EQ(a.hints.never_migrate, b.hints.never_migrate);
  EXPECT_EQ(a.hints.must_colocate, b.hints.must_colocate);
  EXPECT_EQ(a.hints.merge_candidates, b.hints.merge_candidates);
  EXPECT_EQ(a.edges.size(), b.edges.size());
  EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size());
}

TEST(HintsTest, MustColocateCoversFieldEdgesIntoClosure) {
  const auto reg = closure_registry();
  const auto report = analyze(reg);
  // Holder->Device and Outer->Holder are field edges whose target is in the
  // closure: both holders must stay with their referents.
  const auto has_pair = [&](std::string_view from, std::string_view to) {
    return std::find(report.hints.must_colocate.begin(),
                     report.hints.must_colocate.end(),
                     std::pair{reg.find(from), reg.find(to)}) !=
           report.hints.must_colocate.end();
  };
  EXPECT_TRUE(has_pair("Holder", "Device"));
  EXPECT_TRUE(has_pair("Outer", "Holder"));
  EXPECT_EQ(report.hints.must_colocate.size(), 2u);
}

TEST(HintsTest, MergeCandidateForSingleNeighborClass) {
  // Chunk's only static neighbor is List (self-referential next link plus
  // the container): cutting between them can never pay off.
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Chunk")
                         .migratable()
                         .field("next", "Chunk")
                         .build());
  reg.register_class(ClassBuilder("List")
                         .entry()
                         .migratable()
                         .field("head", "Chunk")
                         .build());
  reg.register_class(ClassBuilder("Other").entry().migratable().build());
  const auto report = analyze(reg);
  ASSERT_TRUE(report.ok());
  const auto& mc = report.hints.merge_candidates;
  EXPECT_TRUE(std::find(mc.begin(), mc.end(),
                        std::pair{reg.find("Chunk"), reg.find("List")}) !=
                  mc.end() ||
              std::find(mc.begin(), mc.end(),
                        std::pair{reg.find("List"), reg.find("Chunk")}) !=
                  mc.end());
}

// ---- partitioner consumption -----------------------------------------------

graph::EdgeInfo edge(std::uint64_t bytes, std::uint64_t inv) {
  return graph::EdgeInfo{.invocations = inv, .accesses = 0, .bytes = bytes};
}

TEST(ContractionTest, ShrinksGraphAndPreservesTotals) {
  using graph::ComponentKey;
  graph::ExecGraph g;
  const ComponentKey ui{ClassId{0}}, view{ClassId{1}}, data{ClassId{2}},
      store{ClassId{3}};
  g.set_pinned(ui, true);
  g.add_memory(ui, 10'000, 5);
  g.add_memory(view, 40'000, 10);
  g.add_memory(data, 400'000, 50);
  g.add_memory(store, 600'000, 3);
  g.add_self_time(data, sim_ms(800));
  g.set_edge(ui, view, edge(500'000, 2000));
  g.set_edge(view, data, edge(30'000, 300));
  g.set_edge(data, store, edge(200'000, 1000));

  StaticHints hints;
  hints.never_migrate = {ClassId{0}, ClassId{1}};  // ui + view pinned closure
  hints.merge_candidates = {{ClassId{2}, ClassId{3}}};

  const auto contracted = partition::contract_with_hints(g, hints);
  // 4 nodes -> 2: {ui,view} anchor and {data,store}.
  EXPECT_EQ(contracted.graph.nodes().size(), 2u);
  EXPECT_EQ(contracted.graph.edges().size(), 1u);

  // Totals preserved.
  std::int64_t mem = 0;
  bool anchor_pinned = false;
  for (const auto& [key, info] : contracted.graph.nodes()) {
    mem += info.mem_bytes;
    if (info.pinned) anchor_pinned = true;
  }
  EXPECT_EQ(mem, 10'000 + 40'000 + 400'000 + 600'000);
  EXPECT_TRUE(anchor_pinned);
  EXPECT_EQ(contracted.graph.total_self_time(), g.total_self_time());

  // Every original key is a member of exactly one representative.
  std::size_t covered = 0;
  for (const auto& [rep, members] : contracted.members) {
    covered += members.size();
    EXPECT_TRUE(std::find(members.begin(), members.end(), rep) !=
                members.end());
  }
  EXPECT_EQ(covered, 4u);
}

TEST(ContractionTest, DecisionExpandsToOriginalComponents) {
  using graph::ComponentKey;
  graph::ExecGraph g;
  const ComponentKey ui{ClassId{0}}, data{ClassId{2}}, store{ClassId{3}};
  g.set_pinned(ui, true);
  g.add_memory(ui, 10'000, 5);
  g.add_memory(data, 400'000, 50);
  g.add_memory(store, 600'000, 3);
  g.set_edge(ui, data, edge(30'000, 300));
  g.set_edge(data, store, edge(200'000, 1000));

  StaticHints hints;
  hints.never_migrate = {ClassId{0}};
  hints.merge_candidates = {{ClassId{2}, ClassId{3}}};

  partition::PartitionRequest req;
  req.objective = partition::Objective::free_memory;
  req.heap_capacity = 1 << 20;
  req.min_free_bytes = 500'000;
  req.history_duration = sim_sec(10);
  req.hints = &hints;

  const auto d = partition::decide_partitioning(g, req);
  ASSERT_TRUE(d.offload);
  EXPECT_TRUE(d.hints_applied);
  // MINCUT ran on the contracted graph (2 nodes), but the selection is
  // expanded back to the original component keys.
  EXPECT_EQ(d.mincut_nodes, 2u);
  EXPECT_TRUE(d.selected.offload.contains(data));
  EXPECT_TRUE(d.selected.offload.contains(store));
  EXPECT_FALSE(d.selected.offload.contains(ui));

  // Without hints the same graph yields the same offload set here, with a
  // larger MINCUT input.
  req.hints = nullptr;
  const auto plain = partition::decide_partitioning(g, req);
  ASSERT_TRUE(plain.offload);
  EXPECT_FALSE(plain.hints_applied);
  EXPECT_EQ(plain.mincut_nodes, 3u);
  EXPECT_GT(plain.mincut_nodes, d.mincut_nodes);
  EXPECT_EQ(plain.selected.offload, d.selected.offload);
}

TEST(ContractionTest, EmptyHintsLeaveRequestUntouched) {
  graph::ExecGraph g;
  g.add_memory(graph::ComponentKey{ClassId{1}}, 1000, 1);
  partition::PartitionRequest req;
  req.min_free_bytes = 1;
  req.history_duration = sim_sec(1);
  StaticHints empty;
  req.hints = &empty;  // empty hints: contraction must be skipped
  const auto d = partition::decide_partitioning(g, req);
  EXPECT_FALSE(d.hints_applied);
}

// ---- whole-app regression ---------------------------------------------------

TEST(AppsLintTest, AllFiveAppsAreClean) {
  for (const auto& app : apps::all_apps()) {
    vm::ClassRegistry reg;
    app.register_classes(reg);
    const auto report = analyze(reg);
    EXPECT_EQ(report.errors(), 0u) << app.name << ": " << report.summary();
    EXPECT_EQ(report.count(Severity::warning), 0u)
        << app.name << ": " << report.summary();
    // Every app has a pinned device side and exports usable hints.
    EXPECT_FALSE(report.pin_roots.empty()) << app.name;
    EXPECT_FALSE(report.hints.never_migrate.empty()) << app.name;
    EXPECT_FALSE(report.hints.must_colocate.empty()) << app.name;
  }
}

// ---- platform gate ----------------------------------------------------------

TEST(PlatformGateTest, ConstructorThrowsOnLintError) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  reg->register_class(ClassBuilder("Screen")
                          .entry()
                          .native_method("blit", noop())
                          .effect(NativeEffect::device_state)
                          .build());
  reg->register_class(ClassBuilder("Engine")
                          .entry()
                          .migratable()
                          .field("screen", "Screen")
                          .build());
  EXPECT_THROW(platform::Platform p(reg), AnalysisError);

  // The same registry passes when the gate is disabled.
  platform::PlatformConfig cfg;
  cfg.static_analysis = false;
  platform::Platform ungated(reg, cfg);
  EXPECT_FALSE(ungated.analysis_report().has_value());
}

TEST(PlatformGateTest, ReportExposedOnCleanRegistry) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  apps::app_by_name("Voxel").register_classes(*reg);
  platform::Platform p(reg);
  ASSERT_TRUE(p.analysis_report().has_value());
  EXPECT_TRUE(p.analysis_report()->ok());
  EXPECT_FALSE(p.analysis_report()->hints.empty());
}

// Transparency: the observable checksum is identical with hints off and on
// (placement may differ; results may not).
TEST(PlatformHintsTest, ChecksumUnchangedWithHintsEnabled) {
  const auto& app = apps::app_by_name("JavaNote");
  apps::AppParams params;
  params.doc_bytes = 128 * 1024;
  params.edits = 30;
  params.scrolls = 40;

  const auto run_with = [&](bool hints) {
    auto reg = std::make_shared<vm::ClassRegistry>();
    app.register_classes(*reg);
    platform::PlatformConfig cfg;
    cfg.client_heap = 1100 * 1024;
    cfg.use_static_hints = hints;
    platform::Platform p(reg, cfg);
    const std::uint64_t checksum = app.run(p.client(), params);
    return std::pair{checksum, p.offloaded()};
  };

  const auto [plain, plain_offloaded] = run_with(false);
  const auto [hinted, hinted_offloaded] = run_with(true);
  EXPECT_EQ(plain, hinted);
  EXPECT_EQ(plain_offloaded, hinted_offloaded);
}

}  // namespace
}  // namespace aide::analysis
