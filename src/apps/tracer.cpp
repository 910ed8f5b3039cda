// Tracer: an interactive Java raytracer (Table 1 — CPU intensive, low
// interaction).
//
// A RayEngine intersects every pixel's ray against Sphere objects (heavy CPU
// with stateless Math natives), accumulates into an int[] sample buffer, and
// only occasionally presents progress through the pinned Screen — the lowest
// client-coupling of the five workloads, and hence the paper's best
// offloading candidate.
#include <algorithm>
#include <string>

#include "apps/apps.hpp"
#include "apps/stdlib.hpp"

namespace aide::apps {

using vm::ObjectRef;
using vm::Value;
using vm::Vm;

namespace {

constexpr SimDuration kPixelWork = sim_us(1200);
constexpr SimDuration kIntersectWork = sim_us(450);
constexpr SimDuration kPresentWork = sim_us(4500);

const Value& arg(std::span<const Value> args, std::size_t i) {
  static const Value nil;
  return i < args.size() ? args[i] : nil;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

// Cached call sites (resolved once per registry epoch, then MethodId
// dispatch). const, not constexpr: the resolution fields are mutable.
const vm::CallSite kSceneGetSphere{"getSphere"};
const vm::CallSite kSceneBuildScene{"buildScene"};
const vm::CallSite kEngineRenderRow{"renderRow"};
const vm::CallSite kEngineChecksum{"checksumImage"};
const vm::CallSite kScreenPresentRows{"presentRows"};
const vm::CallSite kDisplayDrawLine{"drawLine"};
const vm::CallSite kDisplayFlush{"flush"};
const vm::StaticCallSite kMathSqrt{"Math", "sqrt"};
const vm::StaticCallSite kMathPow{"Math", "pow"};

constexpr FieldId kSphX{0}, kSphY{1}, kSphZ{2}, kSphR{3}, kSphMat{4};
constexpr FieldId kMatR{0}, kMatG{1}, kMatB{2}, kMatReflect{3};
constexpr FieldId kSceneSpheres{0}, kSceneCount{1}, kSceneLightX{2},
    kSceneLightY{3}, kSceneLightZ{4};
constexpr FieldId kEngineScene{0}, kEngineBuffer{1}, kEngineW{2}, kEngineH{3};
constexpr FieldId kScreenDisplay{0}, kScreenBlits{1};

void register_classes_impl(vm::ClassRegistry& reg) {
  using vm::ClassBuilder;

  reg.register_class(ClassBuilder("Trc.Material")
                         .source("src/apps/tracer.cpp")
                         .migratable()
                         .field("r")
                         .field("g")
                         .field("b")
                         .field("reflect")
                         .build());
  reg.register_class(ClassBuilder("Trc.Sphere")
                         .source("src/apps/tracer.cpp")
                         .migratable()
                         .field("x")
                         .field("y")
                         .field("z")
                         .field("radius")
                         .field("material", "Trc.Material")
                         .build());

  reg.register_class(
      ClassBuilder("Trc.Scene")
          .source("src/apps/tracer.cpp")
          .migratable()
          .entry()
          .field("spheres")
          .field("count")
          .field("lightX")
          .field("lightY")
          .field("lightZ")
          .references("Trc.Sphere")
          .references("Trc.Material")
          .method(
              "buildScene",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const std::int64_t n = arg(args, 0).as_int();
                const ObjectRef spheres = ctx.new_ref_array(n);
                for (std::int64_t i = 0; i < n; ++i) {
                  const ObjectRef mat = ctx.new_object("Trc.Material");
                  ctx.put_field(mat, kMatR,
                                Value{static_cast<double>((i * 47) % 256)});
                  ctx.put_field(mat, kMatG,
                                Value{static_cast<double>((i * 91) % 256)});
                  ctx.put_field(mat, kMatB,
                                Value{static_cast<double>((i * 139) % 256)});
                  ctx.put_field(mat, kMatReflect,
                                Value{(i % 3) == 0 ? 0.4 : 0.0});
                  const ObjectRef sphere = ctx.new_object("Trc.Sphere");
                  ctx.put_field(sphere, kSphX,
                                Value{static_cast<double>((i * 31) % 40) -
                                      20.0});
                  ctx.put_field(sphere, kSphY,
                                Value{static_cast<double>((i * 57) % 24) -
                                      12.0});
                  ctx.put_field(sphere, kSphZ,
                                Value{20.0 + static_cast<double>((i * 13) %
                                                                 30)});
                  ctx.put_field(sphere, kSphR,
                                Value{2.0 + static_cast<double>(i % 4)});
                  ctx.put_field(sphere, kSphMat, Value{mat});
                  ctx.put_field(spheres,
                                FieldId{static_cast<std::uint32_t>(i)},
                                Value{sphere});
                }
                ctx.put_field(self, kSceneSpheres, Value{spheres});
                ctx.put_field(self, kSceneCount, Value{n});
                ctx.put_field(self, kSceneLightX, Value{-30.0});
                ctx.put_field(self, kSceneLightY, Value{25.0});
                ctx.put_field(self, kSceneLightZ, Value{-10.0});
                return Value{};
              })
          .arity(1)
          .allocates("Object[]")
          .allocates("Trc.Material")
          .allocates("Trc.Sphere")
          .writes("Trc.Material", "r")
          .writes("Trc.Material", "g")
          .writes("Trc.Material", "b")
          .writes("Trc.Material", "reflect")
          .writes("Trc.Sphere", "x")
          .writes("Trc.Sphere", "y")
          .writes("Trc.Sphere", "z")
          .writes("Trc.Sphere", "radius")
          .writes("Trc.Sphere", "material", "Trc.Material")
          .writes_elems("Object[]")
          .writes("Trc.Scene", "spheres")
          .writes("Trc.Scene", "count")
          .writes("Trc.Scene", "lightX")
          .writes("Trc.Scene", "lightY")
          .writes("Trc.Scene", "lightZ")
          .method("getSphere",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef spheres =
                        ctx.get_field(self, kSceneSpheres).as_ref();
                    return ctx.get_field(
                        spheres, FieldId{static_cast<std::uint32_t>(
                                     arg(args, 0).as_int())});
                  })
          .arity(1)
          .reads("Trc.Scene", "spheres")
          .reads_elems("Object[]")
          .build());

  reg.register_class(
      ClassBuilder("Trc.RayEngine")
          .source("src/apps/tracer.cpp")
          .migratable()
          .entry()
          .field("scene", "Trc.Scene")
          .field("buffer")
          .field("w")
          .field("h")
          .references("Trc.Sphere")
          .references("Trc.Material")
          .method(
              "renderRow",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const std::int64_t y = arg(args, 0).as_int();
                const ObjectRef scene =
                    ctx.get_field(self, kEngineScene).as_ref();
                const ObjectRef buffer =
                    ctx.get_field(self, kEngineBuffer).as_ref();
                const std::int64_t w =
                    ctx.get_field(self, kEngineW).as_int();
                const std::int64_t h =
                    ctx.get_field(self, kEngineH).as_int();
                const std::int64_t count =
                    ctx.get_field(scene, kSceneCount).as_int();
                const double lx =
                    ctx.get_field(scene, kSceneLightX).to_real();
                const double ly =
                    ctx.get_field(scene, kSceneLightY).to_real();

                for (std::int64_t x = 0; x < w; ++x) {
                  ctx.work(kPixelWork);
                  const double rx =
                      (static_cast<double>(x) / static_cast<double>(w)) -
                      0.5;
                  const double ry =
                      (static_cast<double>(y) / static_cast<double>(h)) -
                      0.5;
                  double best_t = 1e30;
                  ObjectRef hit = vm::kNullRef;
                  for (std::int64_t s = 0; s < count; ++s) {
                    ctx.work(kIntersectWork);
                    const ObjectRef sphere =
                        ctx.call(scene, kSceneGetSphere, {Value{s}}).as_ref();
                    const double sx = ctx.get_field(sphere, kSphX).to_real();
                    const double sy = ctx.get_field(sphere, kSphY).to_real();
                    const double sz = ctx.get_field(sphere, kSphZ).to_real();
                    const double sr = ctx.get_field(sphere, kSphR).to_real();
                    // Ray from origin towards (rx, ry, 1).
                    const double b = sx * rx + sy * ry + sz;
                    const double c =
                        sx * sx + sy * sy + sz * sz - sr * sr;
                    const double disc = b * b - c;
                    if (disc <= 0) continue;
                    const double sq =
                        ctx.call_static(kMathSqrt, {Value{disc}})
                            .as_real();
                    const double t = b - sq;
                    if (t > 0.01 && t < best_t) {
                      best_t = t;
                      hit = sphere;
                    }
                  }
                  // Tone mapping goes through the Math native for every
                  // pixel (the paper's stateless-native hot path).
                  const double gamma =
                      ctx.call_static(kMathPow,
                                      {Value{0.9}, Value{1.0 + ry}})
                          .as_real();
                  std::int64_t rgb = 0x10203A;  // background
                  if (!hit.is_null()) {
                    (void)gamma;
                    const ObjectRef mat =
                        ctx.get_field(hit, kSphMat).as_ref();
                    const double shade =
                        0.4 +
                        0.6 * std::clamp((lx * rx + ly * ry) * -0.05 + 0.5,
                                         0.0, 1.0);
                    const auto channel = [&](FieldId f) {
                      return static_cast<std::int64_t>(
                          ctx.get_field(mat, f).to_real() * shade);
                    };
                    rgb = (channel(kMatR) << 16) | (channel(kMatG) << 8) |
                          channel(kMatB);
                  }
                  ctx.array_put(buffer, y * w + x, Value{rgb});
                }
                return Value{w};
              })
          .arity(1)
          .reads("Trc.RayEngine", "scene")
          .reads("Trc.RayEngine", "buffer")
          .reads("Trc.RayEngine", "w")
          .reads("Trc.RayEngine", "h")
          .reads("Trc.Scene", "count")
          .reads("Trc.Scene", "lightX")
          .reads("Trc.Scene", "lightY")
          .reads("Trc.Sphere", "x")
          .reads("Trc.Sphere", "y")
          .reads("Trc.Sphere", "z")
          .reads("Trc.Sphere", "radius")
          .reads("Trc.Sphere", "material")
          .reads("Trc.Material", "r")
          .reads("Trc.Material", "g")
          .reads("Trc.Material", "b")
          .writes_elems("int[]")
          .invokes("Trc.Scene", "getSphere", 1)
          .invokes("Math", "sqrt", 1)
          .invokes("Math", "pow", 2)
          .method("checksumImage",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef buffer =
                        ctx.get_field(self, kEngineBuffer).as_ref();
                    const std::int64_t n = ctx.array_length(buffer);
                    std::uint64_t h = 29;
                    for (std::int64_t i = 0; i < n; i += 13) {
                      h = mix(h, static_cast<std::uint64_t>(
                                     ctx.array_get(buffer, i).as_int()));
                    }
                    return Value{static_cast<std::int64_t>(h)};
                  })
          .arity(0)
          .reads("Trc.RayEngine", "buffer")
          .reads_elems("int[]")
          .build());

  reg.register_class(
      ClassBuilder("Trc.Screen")
          .source("src/apps/tracer.cpp")
          .pin(vm::PinReason::ui)
          .entry()
          .field("display", "Display")
          .field("blits")
          // Pinned: progressive preview + final present on the device.
          .native_method(
              "presentRows",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef buffer = arg(args, 0).as_ref();
                const std::int64_t from_row = arg(args, 1).as_int();
                const std::int64_t rows = arg(args, 2).as_int();
                const std::int64_t w = arg(args, 3).as_int();
                const ObjectRef display =
                    ctx.get_field(self, kScreenDisplay).as_ref();
                std::uint64_t h = 31;
                for (std::int64_t y = from_row; y < from_row + rows; ++y) {
                  for (std::int64_t x = 0; x < w; x += 6) {
                    ctx.work(kPresentWork);
                    h = mix(h, static_cast<std::uint64_t>(
                                   ctx.array_get(buffer, y * w + x)
                                       .as_int()));
                  }
                  ctx.call(display, kDisplayDrawLine,
                           {Value{0}, Value{y}, Value{w}, Value{y}});
                }
                ctx.call(display, kDisplayFlush);
                const Value blits = ctx.get_field(self, kScreenBlits);
                ctx.put_field(self, kScreenBlits,
                              Value{(blits.is_int() ? blits.as_int() : 0) +
                                    1});
                return Value{static_cast<std::int64_t>(h)};
              })
          .arity(4)
          .effect(vm::NativeEffect::device_state)
          .reads("Trc.Screen", "display")
          .reads("Trc.Screen", "blits")
          .writes("Trc.Screen", "blits")
          .reads_elems("int[]")
          .invokes("Display", "drawLine", 4)
          .invokes("Display", "flush", 0)
          .build());
}

}  // namespace

void register_tracer(vm::ClassRegistry& reg) {
  register_stdlib(reg);
  if (reg.contains("Trc.Scene")) return;
  register_classes_impl(reg);
}

std::uint64_t run_tracer(Vm& ctx, const AppParams& params) {
  const auto w = static_cast<std::int64_t>(params.trace_w * params.scale);
  const auto h = static_cast<std::int64_t>(params.trace_h * params.scale);
  const std::int64_t spheres = params.spheres;

  const ObjectRef display = ctx.new_object("Display");
  ctx.add_root(display);

  const ObjectRef scene = ctx.new_object("Trc.Scene");
  ctx.add_root(scene);
  ctx.call(scene, kSceneBuildScene, {Value{spheres}});

  const ObjectRef engine = ctx.new_object("Trc.RayEngine");
  ctx.add_root(engine);
  ctx.put_field(engine, kEngineScene, Value{scene});
  ctx.put_field(engine, kEngineBuffer, Value{ctx.new_int_array(w * h)});
  ctx.put_field(engine, kEngineW, Value{w});
  ctx.put_field(engine, kEngineH, Value{h});

  const ObjectRef screen = ctx.new_object("Trc.Screen");
  ctx.add_root(screen);
  ctx.put_field(screen, kScreenDisplay, Value{display});

  std::uint64_t checksum = 37;
  const std::int64_t preview_every = std::max<std::int64_t>(h / 4, 1);
  for (std::int64_t y = 0; y < h; ++y) {
    ctx.call(engine, kEngineRenderRow, {Value{y}});
    // Low interaction: only occasional progressive previews.
    if ((y + 1) % preview_every == 0) {
      const ObjectRef buffer = ctx.get_field(engine, kEngineBuffer).as_ref();
      const Value ph = ctx.call(
          screen, kScreenPresentRows,
          {Value{buffer}, Value{y + 1 - preview_every}, Value{preview_every},
           Value{w}});
      checksum = mix(checksum, static_cast<std::uint64_t>(ph.as_int()));
    }
  }

  checksum = mix(checksum, static_cast<std::uint64_t>(
                               ctx.call(engine, kEngineChecksum).as_int()));
  checksum = mix(checksum, static_cast<std::uint64_t>(
                               ctx.get_field(display, FieldId{1}).is_int()
                                   ? ctx.get_field(display, FieldId{1})
                                         .as_int()
                                   : 0));

  for (const ObjectRef r : {display, scene, engine, screen}) {
    ctx.remove_root(r);
  }
  ctx.clear_driver_roots();
  return checksum;
}

}  // namespace aide::apps
