// Golden-output tests for the aidelint / aideverify CLI rendering and the
// exit-code contract. The goldens under tests/golden/ pin the exact text and
// JSON bytes the tool emits for a representative app (Voxel); regenerate
// them with AIDE_UPDATE_GOLDEN=1 after an intentional format change.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

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
  reg.register_class(ClassBuilder("Helper")
                         .entry()
                         .method("h", noop())
                         .no_effects()
                         .build());
  reg.register_class(ClassBuilder("Stale")
                         .entry()
                         .calls("Helper", "h", 0)  // nothing backs this
                         .method("f", noop())
                         .no_effects()
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
                         .calls("Nowhere", "nothing", 0)
                         .method("f", noop())
                         .invokes("Nowhere", "nothing", 0)
                         .build());
  EXPECT_EQ(exit_code(analyze(reg)), 2);  // unknown-call-target
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
