#include "apps/stdlib.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>

namespace aide::apps {

using vm::ClassBuilder;
using vm::ObjectRef;
using vm::Value;
using vm::Vm;

namespace {

// Cached call sites for the collection hot paths: each resolves
// "ArrayList.<method>" once per registry and then dispatches by MethodId.
// Deliberately const, not constexpr: the cache fields are mutable.
const vm::CallSite kListSize{"size"};
const vm::CallSite kListGet{"get"};
const vm::CallSite kListAdd{"add"};

const Value& arg(std::span<const Value> args, std::size_t i) {
  static const Value nil;
  return i < args.size() ? args[i] : nil;
}

std::uint64_t mix_hash(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

// Deterministic "file contents": printable pseudo-text so FileSystem.read is
// reproducible without real files.
std::string synth_text(std::uint64_t path_hash, std::int64_t offset,
                       std::int64_t length) {
  static constexpr char alphabet[] =
      "etaoin shrdlu cmfwyp vbgkqjxz ETAOIN.\n";
  std::string out;
  out.reserve(static_cast<std::size_t>(length));
  for (std::int64_t i = 0; i < length; ++i) {
    const std::uint64_t h =
        mix_hash(path_hash, static_cast<std::uint64_t>(offset + i));
    out.push_back(alphabet[h % (sizeof(alphabet) - 1)]);
  }
  return out;
}

std::uint64_t str_hash(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

void register_display(vm::ClassRegistry& reg) {
  reg.register_class(
      ClassBuilder("Display")
          .source("src/apps/stdlib.cpp")
          .pin(vm::PinReason::ui)
          .entry()
          .field("ops")
          .field("checksum")
          .native_method("drawText",
                         [](Vm& ctx, ObjectRef self, auto args) -> Value {
                           const auto& s = arg(args, 2).as_str();
                           ctx.work(sim_us(4) +
                                    sim_ns(20) * static_cast<SimDuration>(
                                                     s.size()));
                           std::uint64_t h = static_cast<std::uint64_t>(
                               ctx.get_field(self, FieldId{1}).is_int()
                                   ? ctx.get_field(self, FieldId{1}).as_int()
                                   : 0);
                           h = mix_hash(h, static_cast<std::uint64_t>(
                                               arg(args, 0).as_int()));
                           h = mix_hash(h, str_hash(s));
                           ctx.put_field(self, FieldId{1},
                                         Value{static_cast<std::int64_t>(h)});
                           return Value{};
                         })
          .arity(3)
          .effect(vm::NativeEffect::device_state)
          .reads("Display", "checksum")
          .writes("Display", "checksum")
          .native_method("drawLine",
                         [](Vm& ctx, ObjectRef self, auto args) -> Value {
                           ctx.work(sim_us(2));
                           std::uint64_t h = static_cast<std::uint64_t>(
                               ctx.get_field(self, FieldId{1}).is_int()
                                   ? ctx.get_field(self, FieldId{1}).as_int()
                                   : 0);
                           for (std::size_t i = 0; i < args.size(); ++i) {
                             h = mix_hash(h, static_cast<std::uint64_t>(
                                                 arg(args, i).as_int()));
                           }
                           ctx.put_field(self, FieldId{1},
                                         Value{static_cast<std::int64_t>(h)});
                           return Value{};
                         })
          .arity(4)
          .effect(vm::NativeEffect::device_state)
          .reads("Display", "checksum")
          .writes("Display", "checksum")
          .native_method("drawPixel",
                         [](Vm& ctx, ObjectRef self, auto args) -> Value {
                           ctx.work(sim_ns(300));
                           std::uint64_t h = static_cast<std::uint64_t>(
                               ctx.get_field(self, FieldId{1}).is_int()
                                   ? ctx.get_field(self, FieldId{1}).as_int()
                                   : 0);
                           h = mix_hash(h, static_cast<std::uint64_t>(
                                               arg(args, 0).as_int() * 131 +
                                               arg(args, 1).as_int()));
                           h = mix_hash(h, static_cast<std::uint64_t>(
                                               arg(args, 2).as_int()));
                           ctx.put_field(self, FieldId{1},
                                         Value{static_cast<std::int64_t>(h)});
                           return Value{};
                         })
          .arity(3)
          .effect(vm::NativeEffect::device_state)
          .reads("Display", "checksum")
          .writes("Display", "checksum")
          .native_method("flush",
                         [](Vm& ctx, ObjectRef self, auto) -> Value {
                           ctx.work(sim_us(30));
                           const Value ops = ctx.get_field(self, FieldId{0});
                           ctx.put_field(
                               self, FieldId{0},
                               Value{(ops.is_int() ? ops.as_int() : 0) + 1});
                           return Value{};
                         })
          .arity(0)
          .effect(vm::NativeEffect::device_state)
          .reads("Display", "ops")
          .writes("Display", "ops")
          .build());
}

void register_system_classes(vm::ClassRegistry& reg) {
  reg.register_class(
      ClassBuilder("Console")
          .source("src/apps/stdlib.cpp")
          .pin(vm::PinReason::ui)
          .entry()
          .field("lines")
          .native_method("println",
                         [](Vm& ctx, ObjectRef self, auto args) -> Value {
                           ctx.work(sim_us(2) +
                                    sim_ns(10) * static_cast<SimDuration>(
                                                     arg(args, 0).is_str()
                                                         ? arg(args, 0)
                                                               .as_str()
                                                               .size()
                                                         : 8));
                           const Value n = ctx.get_field(self, FieldId{0});
                           ctx.put_field(
                               self, FieldId{0},
                               Value{(n.is_int() ? n.as_int() : 0) + 1});
                           return Value{};
                         })
          .arity(1)
          .effect(vm::NativeEffect::device_state)
          .reads("Console", "lines")
          .writes("Console", "lines")
          .build());

  reg.register_class(
      ClassBuilder("FileSystem")
          .source("src/apps/stdlib.cpp")
          .entry()
          .field("reads")
          .native_method(
              "read",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const auto& path = arg(args, 0).as_str();
                const std::int64_t offset = arg(args, 1).as_int();
                const std::int64_t length = arg(args, 2).as_int();
                ctx.work(sim_us(40) +
                         sim_ns(8) * static_cast<SimDuration>(length));
                const Value n = ctx.get_field(self, FieldId{0});
                ctx.put_field(self, FieldId{0},
                              Value{(n.is_int() ? n.as_int() : 0) + 1});
                return Value{synth_text(str_hash(path), offset, length)};
              })
          .arity(3)
          .effect(vm::NativeEffect::device_state)
          .reads("FileSystem", "reads")
          .writes("FileSystem", "reads")
          .native_method("size",
                         [](Vm& ctx, ObjectRef, auto) -> Value {
                           ctx.work(sim_us(10));
                           return Value{std::int64_t{1} << 20};
                         })
          .arity(0)
          .effect(vm::NativeEffect::device_state)
          .no_effects()
          .build());

  reg.register_class(
      ClassBuilder("System")
          .source("src/apps/stdlib.cpp")
          .entry()
          .static_slot("os_name")
          .static_slot("vm_version")
          .static_slot("locale")
          .native_method("currentTimeMillis",
                         [](Vm& ctx, ObjectRef, auto) -> Value {
                           ctx.work(sim_ns(200));
                           return Value{ctx.clock().now() / 1'000'000};
                         },
                         /*stateless=*/false, /*is_static=*/true)
          .arity(0)
          .effect(vm::NativeEffect::device_state)
          .no_effects()
          .static_method("getProperty",
                         [](Vm& ctx, ObjectRef, auto args) -> Value {
                           const auto& key = arg(args, 0).as_str();
                           const ClassId cls = ctx.find_class("System");
                           const auto& def = ctx.class_def(cls);
                           return ctx.get_static(cls, def.require_static(key));
                         })
          .arity(1)
          .reads_static("System", "*")
          .build());

  reg.register_class(
      ClassBuilder("EventQueue")
          .source("src/apps/stdlib.cpp")
          .pin(vm::PinReason::ui)
          .entry()
          .field("counter")
          .native_method("poll",
                         [](Vm& ctx, ObjectRef self, auto) -> Value {
                           ctx.work(sim_us(1));
                           const Value n = ctx.get_field(self, FieldId{0});
                           const std::int64_t c =
                               n.is_int() ? n.as_int() : 0;
                           ctx.put_field(self, FieldId{0}, Value{c + 1});
                           // Deterministic pseudo-event stream.
                           return Value{static_cast<std::int64_t>(
                               (c * 2654435761ULL) % 7)};
                         })
          .arity(0)
          .effect(vm::NativeEffect::device_state)
          .reads("EventQueue", "counter")
          .writes("EventQueue", "counter")
          .build());
}

void register_math(vm::ClassRegistry& reg) {
  auto unary = [](double (*fn)(double)) {
    return [fn](Vm& ctx, ObjectRef, std::span<const Value> args) -> Value {
      ctx.work(sim_ns(350));
      return Value{fn(args[0].to_real())};
    };
  };
  reg.register_class(
      ClassBuilder("Math")
          .source("src/apps/stdlib.cpp")
          .migratable()
          .native_method("sqrt", unary(+[](double x) { return std::sqrt(x); }),
                         true, true)
          .arity(1)
          .no_effects()
          .native_method("sin", unary(+[](double x) { return std::sin(x); }),
                         true, true)
          .arity(1)
          .no_effects()
          .native_method("cos", unary(+[](double x) { return std::cos(x); }),
                         true, true)
          .arity(1)
          .no_effects()
          .native_method("exp", unary(+[](double x) { return std::exp(x); }),
                         true, true)
          .arity(1)
          .no_effects()
          .native_method("floor",
                         unary(+[](double x) { return std::floor(x); }), true,
                         true)
          .arity(1)
          .no_effects()
          .native_method("atan2",
                         [](Vm& ctx, ObjectRef, auto args) -> Value {
                           ctx.work(sim_ns(400));
                           return Value{std::atan2(args[0].to_real(),
                                                   args[1].to_real())};
                         },
                         true, true)
          .arity(2)
          .no_effects()
          .native_method("pow",
                         [](Vm& ctx, ObjectRef, auto args) -> Value {
                           ctx.work(sim_ns(500));
                           return Value{std::pow(args[0].to_real(),
                                                 args[1].to_real())};
                         },
                         true, true)
          .arity(2)
          .no_effects()
          .native_method("absI",
                         [](Vm& ctx, ObjectRef, auto args) -> Value {
                           ctx.work(sim_ns(100));
                           const auto v = args[0].as_int();
                           return Value{v < 0 ? -v : v};
                         },
                         true, true)
          .arity(1)
          .no_effects()
          .native_method("noise",
                         [](Vm& ctx, ObjectRef, auto args) -> Value {
                           // Deterministic integer noise for the fractal
                           // generators.
                           ctx.work(sim_ns(250));
                           std::uint64_t h = 0x9E3779B97F4A7C15ULL;
                           for (std::size_t i = 0; i < args.size(); ++i) {
                             h = mix_hash(h, static_cast<std::uint64_t>(
                                                 args[i].as_int()));
                           }
                           return Value{
                               static_cast<std::int64_t>(h % 65536) - 32768};
                         },
                         true, true)
          .no_effects()
          .build());

  reg.register_class(
      ClassBuilder("StrUtil")
          .source("src/apps/stdlib.cpp")
          .migratable()
          .native_method("compare",
                         [](Vm& ctx, ObjectRef, auto args) -> Value {
                           const auto& a = args[0].as_str();
                           const auto& b = args[1].as_str();
                           ctx.work(sim_ns(50) * static_cast<SimDuration>(
                                                     1 + std::min(a.size(),
                                                                  b.size())));
                           return Value{std::int64_t{a.compare(b)}};
                         },
                         true, true)
          .arity(2)
          .no_effects()
          .native_method("copyCase",
                         [](Vm& ctx, ObjectRef, auto args) -> Value {
                           std::string s = args[0].as_str();
                           ctx.work(sim_ns(40) *
                                    static_cast<SimDuration>(1 + s.size()));
                           for (auto& c : s) {
                             c = static_cast<char>(std::toupper(
                                 static_cast<unsigned char>(c)));
                           }
                           return Value{std::move(s)};
                         },
                         true, true)
          .arity(1)
          .no_effects()
          .build());
}

void register_value_classes(vm::ClassRegistry& reg) {
  reg.register_class(
      ClassBuilder("String")
          .source("src/apps/stdlib.cpp")
          .migratable()
          .entry()
          .field("value")
          .method("length",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    return Value{static_cast<std::int64_t>(
                        ctx.get_field(self, FieldId{0}).as_str().size())};
                  },
                  sim_ns(120))
          .arity(0)
          .reads("String", "value")
          .method("charAt",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::string s =
                        ctx.get_field(self, FieldId{0}).as_str();
                    const auto i =
                        static_cast<std::size_t>(arg(args, 0).as_int());
                    return Value{static_cast<std::int64_t>(
                        i < s.size() ? static_cast<unsigned char>(s[i]) : 0)};
                  },
                  sim_ns(120))
          .arity(1)
          .reads("String", "value")
          .method("concat",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::string a =
                        ctx.get_field(self, FieldId{0}).as_str();
                    const std::string b =
                        ctx.get_field(arg(args, 0).as_ref(), FieldId{0})
                            .as_str();
                    ObjectRef out = ctx.new_object("String");
                    ctx.put_field(out, FieldId{0}, Value{a + b});
                    return Value{out};
                  },
                  sim_ns(300))
          .arity(1)
          .reads("String", "value")
          .allocates("String")
          .writes("String", "value")
          .method("substring",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::string s =
                        ctx.get_field(self, FieldId{0}).as_str();
                    const auto from =
                        static_cast<std::size_t>(arg(args, 0).as_int());
                    const auto len =
                        static_cast<std::size_t>(arg(args, 1).as_int());
                    ObjectRef out = ctx.new_object("String");
                    ctx.put_field(
                        out, FieldId{0},
                        Value{from < s.size() ? s.substr(from, len)
                                              : std::string{}});
                    return Value{out};
                  },
                  sim_ns(250))
          .arity(2)
          .reads("String", "value")
          .allocates("String")
          .writes("String", "value")
          .method("hashCode",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const std::string s =
                        ctx.get_field(self, FieldId{0}).as_str();
                    return Value{static_cast<std::int64_t>(str_hash(s))};
                  },
                  sim_ns(200))
          .arity(0)
          .reads("String", "value")
          .build());

  reg.register_class(
      ClassBuilder("StringBuilder")
          .source("src/apps/stdlib.cpp")
          .migratable()
          .references("String")
          .field("value")
          .method("append",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const Value cur = ctx.get_field(self, FieldId{0});
                    std::string s = cur.is_str() ? cur.as_str() : "";
                    const Value& a = arg(args, 0);
                    if (a.is_str()) {
                      s += a.as_str();
                    } else if (a.is_int()) {
                      s += std::to_string(a.as_int());
                    } else if (a.is_ref()) {
                      s += ctx.get_field(a.as_ref(), FieldId{0}).as_str();
                    }
                    ctx.put_field(self, FieldId{0}, Value{std::move(s)});
                    return Value{self};
                  },
                  sim_ns(250))
          .reads("StringBuilder", "value")
          .reads("String", "value")
          .writes("StringBuilder", "value")
          .method("toStr",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    ObjectRef out = ctx.new_object("String");
                    const Value cur = ctx.get_field(self, FieldId{0});
                    ctx.put_field(out, FieldId{0},
                                  cur.is_str() ? cur : Value{std::string{}});
                    return Value{out};
                  },
                  sim_ns(200))
          .allocates("String")
          .reads("StringBuilder", "value")
          .writes("String", "value")
          .build());

  for (const char* name : {"Integer", "Long", "Double", "Boolean",
                           "Character"}) {
    reg.register_class(
        ClassBuilder(name)
            .source("src/apps/stdlib.cpp")
            .migratable()
            .field("value")
            .method("get",
                    [](Vm& ctx, ObjectRef self, auto) -> Value {
                      return ctx.get_field(self, FieldId{0});
                    },
                    sim_ns(80))
            .reads(name, "value")
            .method("set",
                    [](Vm& ctx, ObjectRef self, auto args) -> Value {
                      ctx.put_field(self, FieldId{0}, arg(args, 0));
                      return Value{};
                    },
                    sim_ns(80))
            .writes(name, "value")
            .build());
  }

  // Small geometry/UI value classes used across the applications.
  reg.register_class(ClassBuilder("Point")
                         .source("src/apps/stdlib.cpp")
                         .migratable()
                         .field("x")
                         .field("y")
                         .build());
  reg.register_class(ClassBuilder("Rect")
                         .source("src/apps/stdlib.cpp")
                         .migratable()
                         .entry()
                         .field("x")
                         .field("y")
                         .field("w")
                         .field("h")
                         .build());
  reg.register_class(ClassBuilder("Color")
                         .source("src/apps/stdlib.cpp")
                         .migratable()
                         .field("rgb")
                         .build());
  reg.register_class(ClassBuilder("Font")
                         .source("src/apps/stdlib.cpp")
                         .migratable()
                         .field("name")
                         .field("size")
                         .build());
  reg.register_class(ClassBuilder("Dimension")
                         .source("src/apps/stdlib.cpp")
                         .migratable()
                         .field("w")
                         .field("h")
                         .build());
}

void register_collections(vm::ClassRegistry& reg) {
  constexpr int kChunkSlots = 16;

  {
    ClassBuilder chunk("ListChunk");
    chunk.source("src/apps/stdlib.cpp").migratable();
    for (int i = 0; i < kChunkSlots; ++i) {
      // Built with append rather than `"s" + to_string(i)`: the temporary
      // concat trips GCC 12's -Wrestrict false positive (PR105329) here.
      std::string slot(1, 's');
      slot += std::to_string(i);
      chunk.field(slot);
    }
    chunk.field("count");
    chunk.field("next", "ListChunk");
    reg.register_class(std::move(chunk).build());
  }

  const auto chunk_count_field = FieldId{kChunkSlots};
  const auto chunk_next_field = FieldId{kChunkSlots + 1};

  reg.register_class(
      ClassBuilder("ArrayList")
          .source("src/apps/stdlib.cpp")
          .migratable()
          .entry()
          .field("size")
          .field("head", "ListChunk")
          .field("tail", "ListChunk")
          .method(
              "add",
              [=](Vm& ctx, ObjectRef self, auto args) -> Value {
                Value tail_v = ctx.get_field(self, FieldId{2});
                ObjectRef tail =
                    tail_v.is_ref() ? tail_v.as_ref() : vm::kNullRef;
                std::int64_t count = 0;
                if (!tail.is_null()) {
                  count = ctx.get_field(tail, chunk_count_field).as_int();
                }
                if (tail.is_null() || count == kChunkSlots) {
                  ObjectRef chunk = ctx.new_object("ListChunk");
                  ctx.put_field(chunk, chunk_count_field, Value{0});
                  if (tail.is_null()) {
                    ctx.put_field(self, FieldId{1}, Value{chunk});
                  } else {
                    ctx.put_field(tail, chunk_next_field, Value{chunk});
                  }
                  ctx.put_field(self, FieldId{2}, Value{chunk});
                  tail = chunk;
                  count = 0;
                }
                ctx.put_field(tail,
                              FieldId{static_cast<std::uint32_t>(count)},
                              arg(args, 0));
                ctx.put_field(tail, chunk_count_field, Value{count + 1});
                const std::int64_t size =
                    ctx.get_field(self, FieldId{0}).is_int()
                        ? ctx.get_field(self, FieldId{0}).as_int()
                        : 0;
                ctx.put_field(self, FieldId{0}, Value{size + 1});
                return Value{size};
              },
              sim_ns(300))
          .arity(1)
          .reads("ArrayList", "size")
          .reads("ArrayList", "tail")
          .writes("ArrayList", "size")
          .writes("ArrayList", "head", "ListChunk")
          .writes("ArrayList", "tail", "ListChunk")
          .allocates("ListChunk")
          .reads("ListChunk", "count")
          .writes("ListChunk", "*")
          .method(
              "get",
              [=](Vm& ctx, ObjectRef self, auto args) -> Value {
                std::int64_t index = arg(args, 0).as_int();
                Value chunk_v = ctx.get_field(self, FieldId{1});
                while (chunk_v.is_ref() && !chunk_v.as_ref().is_null()) {
                  const ObjectRef chunk = chunk_v.as_ref();
                  if (index < kChunkSlots) {
                    return ctx.get_field(
                        chunk, FieldId{static_cast<std::uint32_t>(index)});
                  }
                  index -= kChunkSlots;
                  chunk_v = ctx.get_field(chunk, chunk_next_field);
                }
                throw VmError(VmErrorCode::bad_array_index,
                              "ArrayList.get out of range");
              },
              sim_ns(200))
          .arity(1)
          .reads("ArrayList", "head")
          .reads("ListChunk", "*")
          .method(
              "set",
              [=](Vm& ctx, ObjectRef self, auto args) -> Value {
                std::int64_t index = arg(args, 0).as_int();
                Value chunk_v = ctx.get_field(self, FieldId{1});
                while (chunk_v.is_ref() && !chunk_v.as_ref().is_null()) {
                  const ObjectRef chunk = chunk_v.as_ref();
                  if (index < kChunkSlots) {
                    ctx.put_field(chunk,
                                  FieldId{static_cast<std::uint32_t>(index)},
                                  arg(args, 1));
                    return Value{};
                  }
                  index -= kChunkSlots;
                  chunk_v = ctx.get_field(chunk, chunk_next_field);
                }
                throw VmError(VmErrorCode::bad_array_index,
                              "ArrayList.set out of range");
              },
              sim_ns(200))
          .arity(2)
          .reads("ArrayList", "head")
          .reads("ListChunk", "*")
          .writes("ListChunk", "*")
          .method("size",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const Value size = ctx.get_field(self, FieldId{0});
                    return size.is_int() ? size : Value{0};
                  },
                  sim_ns(100))
          .arity(0)
          .reads("ArrayList", "size")
          .build());

  reg.register_class(ClassBuilder("Pair")
                         .source("src/apps/stdlib.cpp")
                         .migratable()
                         .field("key")
                         .field("val")
                         .build());

  reg.register_class(
      ClassBuilder("HashMap")
          .source("src/apps/stdlib.cpp")
          .migratable()
          .field("entries", "ArrayList")
          .field("size")
          .references("Pair")
          .method(
              "put",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                Value entries_v = ctx.get_field(self, FieldId{0});
                if (!entries_v.is_ref() || entries_v.as_ref().is_null()) {
                  entries_v = Value{ctx.new_object("ArrayList")};
                  ctx.put_field(self, FieldId{0}, entries_v);
                }
                const ObjectRef entries = entries_v.as_ref();
                const std::int64_t n =
                    ctx.call(entries, kListSize).as_int();
                for (std::int64_t i = 0; i < n; ++i) {
                  const ObjectRef pair =
                      ctx.call(entries, kListGet, {Value{i}}).as_ref();
                  if (ctx.get_field(pair, FieldId{0}) == arg(args, 0)) {
                    ctx.put_field(pair, FieldId{1}, arg(args, 1));
                    return Value{false};
                  }
                }
                const ObjectRef pair = ctx.new_object("Pair");
                ctx.put_field(pair, FieldId{0}, arg(args, 0));
                ctx.put_field(pair, FieldId{1}, arg(args, 1));
                ctx.call(entries, kListAdd, {Value{pair}});
                const Value size = ctx.get_field(self, FieldId{1});
                ctx.put_field(self, FieldId{1},
                              Value{(size.is_int() ? size.as_int() : 0) + 1});
                return Value{true};
              },
              sim_ns(400))
          .arity(2)
          .reads("HashMap", "entries")
          .reads("HashMap", "size")
          .writes("HashMap", "entries", "ArrayList")
          .writes("HashMap", "size")
          .allocates("ArrayList")
          .allocates("Pair")
          .reads("Pair", "key")
          .writes("Pair", "key")
          .writes("Pair", "val")
          .invokes("ArrayList", "size", 0)
          .invokes("ArrayList", "get", 1)
          .invokes("ArrayList", "add", 1)
          .method(
              "get",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const Value entries_v = ctx.get_field(self, FieldId{0});
                if (!entries_v.is_ref() || entries_v.as_ref().is_null()) {
                  return Value{};
                }
                const ObjectRef entries = entries_v.as_ref();
                const std::int64_t n =
                    ctx.call(entries, kListSize).as_int();
                for (std::int64_t i = 0; i < n; ++i) {
                  const ObjectRef pair =
                      ctx.call(entries, kListGet, {Value{i}}).as_ref();
                  if (ctx.get_field(pair, FieldId{0}) == arg(args, 0)) {
                    return ctx.get_field(pair, FieldId{1});
                  }
                }
                return Value{};
              },
              sim_ns(350))
          .arity(1)
          .reads("HashMap", "entries")
          .reads("Pair", "key")
          .reads("Pair", "val")
          .invokes("ArrayList", "size", 0)
          .invokes("ArrayList", "get", 1)
          .method("size",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const Value size = ctx.get_field(self, FieldId{1});
                    return size.is_int() ? size : Value{0};
                  },
                  sim_ns(100))
          .arity(0)
          .reads("HashMap", "size")
          .build());

  reg.register_class(
      ClassBuilder("Iterator")
          .source("src/apps/stdlib.cpp")
          .migratable()
          .field("list", "ArrayList")
          .field("index")
          .method("hasNext",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef list =
                        ctx.get_field(self, FieldId{0}).as_ref();
                    const std::int64_t index =
                        ctx.get_field(self, FieldId{1}).as_int();
                    return Value{index < ctx.call(list, kListSize).as_int()};
                  },
                  sim_ns(150))
          .arity(0)
          .reads("Iterator", "list")
          .reads("Iterator", "index")
          .invokes("ArrayList", "size", 0)
          .method("next",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef list =
                        ctx.get_field(self, FieldId{0}).as_ref();
                    const std::int64_t index =
                        ctx.get_field(self, FieldId{1}).as_int();
                    ctx.put_field(self, FieldId{1}, Value{index + 1});
                    return ctx.call(list, kListGet, {Value{index}});
                  },
                  sim_ns(200))
          .arity(0)
          .reads("Iterator", "list")
          .reads("Iterator", "index")
          .writes("Iterator", "index")
          .invokes("ArrayList", "get", 1)
          .build());
}

}  // namespace

void register_stdlib(vm::ClassRegistry& reg) {
  if (reg.contains("String")) return;
  register_display(reg);
  register_system_classes(reg);
  register_math(reg);
  register_value_classes(reg);
  register_collections(reg);
}

ObjectRef make_string(Vm& ctx, std::string_view text) {
  const ObjectRef s = ctx.new_object("String");
  ctx.put_field(s, FieldId{0}, Value{std::string(text)});
  return s;
}

std::string string_value(Vm& ctx, ObjectRef str) {
  return ctx.get_field(str, FieldId{0}).as_str();
}

ObjectRef make_list(Vm& ctx) { return ctx.new_object("ArrayList"); }

void list_add(Vm& ctx, ObjectRef list, const Value& item) {
  ctx.call(list, kListAdd, {item});
}

Value list_get(Vm& ctx, ObjectRef list, std::int64_t index) {
  return ctx.call(list, kListGet, {Value{index}});
}

std::int64_t list_size(Vm& ctx, ObjectRef list) {
  return ctx.call(list, kListSize).as_int();
}

ObjectRef box_int(Vm& ctx, std::int64_t value) {
  const ObjectRef b = ctx.new_object("Integer");
  ctx.put_field(b, FieldId{0}, Value{value});
  return b;
}

}  // namespace aide::apps
