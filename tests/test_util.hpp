// Shared helpers for the MiniVM test suites: a small class library with
// plain data classes, managed methods, statics, and native (pinned /
// stateless) methods, the golden-file comparison, a trace event count, and
// reduced parameters for whole-app differential runs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/apps.hpp"
#include "emul/trace.hpp"
#include "vm/klass.hpp"
#include "vm/vm.hpp"

namespace aide::test {

// Compares `actual` with tests/golden/<name>. With AIDE_UPDATE_GOLDEN=1 in
// the environment it rewrites the file instead (after an intentional
// output change).
inline void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(GOLDEN_DIR) + "/" + name;
  if (std::getenv("AIDE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with AIDE_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str())
      << "output drifted from " << path
      << " — if intentional, regenerate with AIDE_UPDATE_GOLDEN=1";
}

inline const vm::Value& arg(std::span<const vm::Value> args, std::size_t i) {
  static const vm::Value nil;
  return i < args.size() ? args[i] : nil;
}

// Registers:
//   Pair    — fields a, b
//   Counter — field n; inc(), get(), addMany(k) (k nested self-calls)
//   Calc    — static managed add(a,b); static slot "memory"
//   Device  — stateful native beep() (pinned class); field beeps
//   Util    — stateless static native twice(x)
//   Holder  — field item
inline std::shared_ptr<vm::ClassRegistry> make_test_registry() {
  auto reg = std::make_shared<vm::ClassRegistry>();
  using vm::ClassBuilder;
  using vm::ObjectRef;
  using vm::Value;
  using vm::Vm;

  reg->register_class(ClassBuilder("Pair").field("a").field("b").build());

  reg->register_class(
      ClassBuilder("Counter")
          .field("n")
          .method("inc",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const Value n = ctx.get_field(self, FieldId{0});
                    const std::int64_t v = n.is_int() ? n.as_int() : 0;
                    ctx.put_field(self, FieldId{0}, Value{v + 1});
                    return Value{v + 1};
                  })
          .method("get",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const Value n = ctx.get_field(self, FieldId{0});
                    return n.is_int() ? n : Value{0};
                  })
          .method("addMany",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::int64_t k = arg(args, 0).as_int();
                    if (k <= 0) return ctx.call(self, "get");
                    ctx.call(self, "inc");
                    return ctx.call(self, "addMany", {Value{k - 1}});
                  })
          .method("busy",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    ctx.work(sim_us(arg(args, 0).as_int()));
                    (void)self;
                    return Value{};
                  })
          .build());

  reg->register_class(
      ClassBuilder("Calc")
          .static_slot("memory")
          .static_method("add",
                         [](Vm&, ObjectRef, auto args) -> Value {
                           return Value{arg(args, 0).as_int() +
                                        arg(args, 1).as_int()};
                         })
          .static_method("recall",
                         [](Vm& ctx, ObjectRef, auto) -> Value {
                           return ctx.get_static("Calc", "memory");
                         })
          .static_method("store",
                         [](Vm& ctx, ObjectRef, auto args) -> Value {
                           const ClassId cls = ctx.find_class("Calc");
                           ctx.put_static(cls, 0, arg(args, 0));
                           return Value{};
                         })
          .build());

  reg->register_class(
      ClassBuilder("Device")
          .field("beeps")
          .native_method("beep",
                         [](Vm& ctx, ObjectRef self, auto) -> Value {
                           const Value n = ctx.get_field(self, FieldId{0});
                           const std::int64_t v = n.is_int() ? n.as_int() : 0;
                           ctx.put_field(self, FieldId{0}, Value{v + 1});
                           return Value{v + 1};
                         })
          .build());

  reg->register_class(
      ClassBuilder("Util")
          .native_method("twice",
                         [](Vm&, ObjectRef, auto args) -> Value {
                           return Value{arg(args, 0).as_int() * 2};
                         },
                         /*stateless=*/true, /*is_static=*/true)
          .build());

  reg->register_class(ClassBuilder("Holder").field("item").build());
  return reg;
}

// Invoke and access events among the trace's first `n` events.
inline std::uint64_t interactions_in(const emul::Trace& trace, std::size_t n) {
  const auto first = trace.events.begin();
  return static_cast<std::uint64_t>(
      std::count_if(first, first + static_cast<std::ptrdiff_t>(n),
                    [](const emul::TraceEvent& e) {
                      return e.type == emul::TraceEventType::invoke ||
                             e.type == emul::TraceEventType::access;
                    }));
}

}  // namespace aide::test
