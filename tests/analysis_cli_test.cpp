// Golden-output tests for the aidelint / aideverify CLI rendering and the
// exit-code contract. The goldens under tests/golden/ pin the exact text and
// JSON bytes the tool emits for a representative app (Voxel), the lint text
// of the toolkit apps and every app's static edge list
// (tests/golden/analysis/); regenerate them with AIDE_UPDATE_GOLDEN=1 after
// an intentional change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/effects.hpp"
#include "analysis/report_io.hpp"
#include "apps/apps.hpp"
#include "tests/test_util.hpp"
#include "vm/klass.hpp"

namespace aide::analysis {
namespace {

using aide::test::check_golden;
using vm::ClassBuilder;
using vm::ClassRegistry;

vm::MethodBody noop() {
  return [](vm::Vm&, vm::ObjectRef, auto) { return vm::Value{}; };
}

std::string lint_text(const char* app, bool hints) {
  ClassRegistry reg;
  apps::app_by_name(app).register_classes(reg);
  std::ostringstream os;
  render_text(os, reg, analyze(reg), hints);
  return os.str();
}

std::string verify_text(const char* app, bool hints) {
  ClassRegistry reg;
  apps::app_by_name(app).register_classes(reg);
  std::ostringstream os;
  render_text(os, reg, verify(reg), hints);
  return os.str();
}

// An app's golden file stem: "JavaNote" -> "javanote".
std::string stem(std::string app) {
  std::transform(app.begin(), app.end(), app.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return app;
}

std::string verify_json(const char* app) {
  ClassRegistry reg;
  apps::app_by_name(app).register_classes(reg);
  std::ostringstream os;
  render_json(os, reg, verify(reg));
  return os.str();
}

TEST(CliGoldenTest, VoxelLintText) {
  check_golden("voxel_lint.txt", lint_text("Voxel", /*hints=*/true));
}

TEST(CliGoldenTest, VoxelVerifyText) {
  check_golden("voxel_verify.txt", verify_text("Voxel", /*hints=*/true));
}

TEST(CliGoldenTest, VoxelVerifyJson) {
  check_golden("voxel_verify.json", verify_json("Voxel"));
}

TEST(CliGoldenTest, TracerVerifyText) {
  check_golden("tracer_verify.txt", verify_text("Tracer", /*hints=*/false));
}

// The lint text with hints for the three apps whose registries carry the
// toolkit's call edges; Voxel's is voxel_lint.txt above.
TEST(CliGoldenTest, ToolkitAppsLintText) {
  for (const char* app : {"JavaNote", "Dia", "Biomer"}) {
    SCOPED_TRACE(app);
    check_golden(stem(app) + "_lint.txt", lint_text(app, /*hints=*/true));
  }
}

std::string_view kind_name(RefKind k) {
  switch (k) {
    case RefKind::field: return "field";
    case RefKind::call: return "call";
    case RefKind::ref: return "ref";
  }
  return "?";
}

// Every app's static reference graph, one "from -> to kind" line per edge:
// the graph the pinned closure, the lints and the hints are derived from.
TEST(CliGoldenTest, AppStaticEdges) {
  for (const auto& app : apps::all_apps()) {
    SCOPED_TRACE(app.name);
    ClassRegistry reg;
    app.register_classes(reg);
    std::string out;
    for (const StaticEdge& e : analyze(reg).edges) {
      out += reg.get(e.from).name + " -> " + reg.get(e.to).name + " " +
             std::string(kind_name(e.kind)) + "\n";
    }
    check_golden("analysis/" + stem(app.name) + "_edges.txt", out);
  }
}

TEST(CliGoldenTest, JsonIsStructurallySane) {
  const std::string j = verify_json("Voxel");
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  long depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : j) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(j.find("\"ir_coverage\""), std::string::npos);
  EXPECT_NE(j.find("\"conflicts\""), std::string::npos);
}

// --- exit-code contract: 0 clean (infos allowed), 1 warnings, 2 errors ------

TEST(CliExitCodeTest, CleanIsZeroEvenWithInfos) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Quiet")
                         .entry()
                         .pin(vm::PinReason::ui)
                         .method("idle", noop())
                         .no_effects()
                         .build());
  const VerifyReport r = verify(reg);
  ASSERT_EQ(r.count(Severity::error), 0u);
  ASSERT_EQ(r.count(Severity::warning), 0u);
  ASSERT_GT(r.count(Severity::info), 0u);  // pin-unjustified info
  EXPECT_EQ(exit_code(r), 0);
}

TEST(CliExitCodeTest, WarningsAreOne) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Sloppy")
                         .entry()
                         .native_method("touch", noop())  // effect undeclared
                         .build());
  const VerifyReport r = verify(reg);
  ASSERT_GT(r.warnings(), 0u);
  ASSERT_EQ(r.errors(), 0u);
  EXPECT_EQ(exit_code(r), 1);
}

TEST(CliExitCodeTest, ErrorsAreTwoForBothReportKinds) {
  ClassRegistry reg;
  reg.register_class(ClassBuilder("Bad")
                         .entry()
                         .pin(vm::PinReason::ui)
                         .migratable()
                         .method("f", noop())
                         .invokes("Nowhere", "nothing", 0)
                         .build());
  EXPECT_EQ(exit_code(analyze(reg)), 2);  // pinned-field-in-migratable
  EXPECT_EQ(exit_code(verify(reg)), 2);   // + ir-unknown-target
}

TEST(CliExitCodeTest, AllAppsVerifyCleanUnderTheContract) {
  for (const auto& app : apps::all_apps()) {
    ClassRegistry reg;
    app.register_classes(reg);
    EXPECT_EQ(exit_code(analyze(reg)), 0) << app.name;
    EXPECT_EQ(exit_code(verify(reg)), 0) << app.name;
  }
}

}  // namespace
}  // namespace aide::analysis
