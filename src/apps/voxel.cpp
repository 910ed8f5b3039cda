// Voxel: a fractal landscape generator (Table 1 — CPU intensive,
// interactive).
//
// A diamond-square generator fills a heightfield (one large int[] array — the
// "Array" enhancement's natural target), and a ray-casting renderer marches
// columns across it every frame, leaning heavily on stateless Math natives.
// Frames are presented through a pinned Screen native. With class-granularity
// placement and client-pinned natives the offloading is not profitable; with
// the paper's two enhancements the renderer + heightfield move to the
// surrogate and frames get faster (Figure 10).
#include <algorithm>
#include <string>

#include "apps/apps.hpp"
#include "apps/stdlib.hpp"

namespace aide::apps {

using vm::ObjectRef;
using vm::Value;
using vm::Vm;

namespace {

constexpr SimDuration kMarchWork = sim_us(1400);
constexpr SimDuration kGenWork = sim_us(500);
constexpr SimDuration kPresentWork = sim_us(900);
constexpr int kMarchSteps = 26;

const Value& arg(std::span<const Value> args, std::size_t i) {
  static const Value nil;
  return i < args.size() ? args[i] : nil;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

constexpr FieldId kFieldData{0}, kFieldSize{1};
constexpr FieldId kCamX{0}, kCamY{1}, kCamAngle{2}, kCamHeight{3};
constexpr FieldId kCasterField{0}, kCasterBuffer{1}, kCasterCols{2};
constexpr FieldId kScreenDisplay{0}, kScreenFrames{1};

// Cached call sites (resolved once per registry epoch, then MethodId
// dispatch). const, not constexpr: the resolution fields are mutable.
const vm::CallSite kFieldInitField{"initField"};
const vm::CallSite kFieldHeightAt{"heightAt"};
const vm::CallSite kFieldChecksum{"checksumField"};
const vm::CallSite kGenGenerate{"generate"};
const vm::CallSite kCasterRenderFrame{"renderFrame"};
const vm::CallSite kScreenPresent{"present"};
const vm::CallSite kEventsPoll{"poll"};
const vm::CallSite kDisplayDrawLine{"drawLine"};
const vm::CallSite kDisplayFlush{"flush"};
const vm::StaticCallSite kMathNoise{"Math", "noise"};
const vm::StaticCallSite kMathCos{"Math", "cos"};
const vm::StaticCallSite kMathSin{"Math", "sin"};
const vm::StaticCallSite kMathSqrt{"Math", "sqrt"};

void register_classes_impl(vm::ClassRegistry& reg) {
  using vm::ClassBuilder;

  reg.register_class(
      ClassBuilder("Vox.HeightField")
          .source("src/apps/voxel.cpp")
          .migratable()
          .entry()
          .field("data")
          .field("size")
          .method("initField",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::int64_t size = arg(args, 0).as_int();
                    ctx.put_field(self, kFieldData,
                                  Value{ctx.new_int_array(size * size)});
                    ctx.put_field(self, kFieldSize, Value{size});
                    return Value{};
                  })
          .allocates("int[]")
          .writes("Vox.HeightField", "data")
          .writes("Vox.HeightField", "size")
          .method("heightAt",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef data =
                        ctx.get_field(self, kFieldData).as_ref();
                    const std::int64_t size =
                        ctx.get_field(self, kFieldSize).as_int();
                    const std::int64_t x =
                        ((arg(args, 0).as_int() % size) + size) % size;
                    const std::int64_t y =
                        ((arg(args, 1).as_int() % size) + size) % size;
                    return ctx.array_get(data, y * size + x);
                  })
          .reads("Vox.HeightField", "data")
          .reads("Vox.HeightField", "size")
          .reads_elems("int[]")
          .method("checksumField",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef data =
                        ctx.get_field(self, kFieldData).as_ref();
                    const std::int64_t n = ctx.array_length(data);
                    std::uint64_t h = 13;
                    for (std::int64_t i = 0; i < n; i += 101) {
                      h = mix(h, static_cast<std::uint64_t>(
                                     ctx.array_get(data, i).as_int()));
                    }
                    return Value{static_cast<std::int64_t>(h)};
                  })
          .arity(0)
          .reads("Vox.HeightField", "data")
          .reads_elems("int[]")
          .build());

  reg.register_class(
      ClassBuilder("Vox.DiamondSquare")
          .source("src/apps/voxel.cpp")
          .migratable()
          .entry()
          .field("roughness")
          .references("Vox.HeightField")
          .method(
              "generate",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef field = arg(args, 0).as_ref();
                const std::int64_t seed = arg(args, 1).as_int();
                const ObjectRef data =
                    ctx.get_field(field, kFieldData).as_ref();
                const std::int64_t size =
                    ctx.get_field(field, kFieldSize).as_int();
                // Coarse-to-fine noise synthesis: deterministic Math.noise
                // at decreasing strides.
                for (std::int64_t stride = (size - 1) / 2; stride >= 1;
                     stride /= 2) {
                  for (std::int64_t y = 0; y < size; y += stride) {
                    for (std::int64_t x = 0; x < size; x += stride) {
                      ctx.work(kGenWork);
                      const std::int64_t noise =
                          ctx.call_static(kMathNoise,
                                          {Value{x / stride},
                                           Value{y / stride}, Value{seed}})
                              .as_int();
                      const std::int64_t prev =
                          ctx.array_get(data, y * size + x).as_int();
                      ctx.array_put(
                          data, y * size + x,
                          Value{prev + noise / std::max<std::int64_t>(
                                                  (size - 1) / stride, 1)});
                    }
                  }
                }
                (void)self;
                return Value{};
              })
          .arity(2)
          .reads("Vox.HeightField", "data")
          .reads("Vox.HeightField", "size")
          .reads_elems("int[]")
          .writes_elems("int[]")
          .invokes("Math", "noise", 3)
          .build());

  reg.register_class(ClassBuilder("Vox.Camera")
                         .source("src/apps/voxel.cpp")
                         .migratable()
                         .entry()
                         .field("x")
                         .field("y")
                         .field("angle")
                         .field("height")
                         .build());

  reg.register_class(
      ClassBuilder("Vox.RayCaster")
          .source("src/apps/voxel.cpp")
          .migratable()
          .entry()
          .field("field", "Vox.HeightField")
          .field("buffer")
          .field("cols")
          .references("Vox.Camera")
          .method(
              "renderFrame",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef camera = arg(args, 0).as_ref();
                const ObjectRef field =
                    ctx.get_field(self, kCasterField).as_ref();
                const ObjectRef buffer =
                    ctx.get_field(self, kCasterBuffer).as_ref();
                const std::int64_t cols =
                    ctx.get_field(self, kCasterCols).as_int();
                const double cx = ctx.get_field(camera, kCamX).to_real();
                const double cy = ctx.get_field(camera, kCamY).to_real();
                const double angle =
                    ctx.get_field(camera, kCamAngle).to_real();
                const double cam_h =
                    ctx.get_field(camera, kCamHeight).to_real();
                for (std::int64_t col = 0; col < cols; ++col) {
                  const double ray =
                      angle + (static_cast<double>(col) /
                                   static_cast<double>(cols) -
                               0.5);
                  const double dx =
                      ctx.call_static(kMathCos, {Value{ray}}).as_real();
                  const double dy =
                      ctx.call_static(kMathSin, {Value{ray}}).as_real();
                  std::int64_t top = 0;
                  for (int step = 1; step <= kMarchSteps; ++step) {
                    ctx.work(kMarchWork);
                    // Haze attenuation through the Math native — exactly the
                    // per-step stateless native call that cripples the
                    // unenhanced offload (paper 5.2).
                    const double dist =
                        ctx.call_static(
                               kMathSqrt,
                               {Value{static_cast<double>(step) *
                                      static_cast<double>(step * step)}})
                            .as_real() *
                        static_cast<double>(step) / 1.733;
                    const std::int64_t h =
                        ctx.call(field, kFieldHeightAt,
                                 {Value{static_cast<std::int64_t>(
                                      cx + dx * dist)},
                                  Value{static_cast<std::int64_t>(
                                      cy + dy * dist)}})
                            .as_int();
                    const std::int64_t projected =
                        static_cast<std::int64_t>(
                            (static_cast<double>(h) - cam_h) / dist * 60.0);
                    top = std::max(top, projected);
                  }
                  ctx.array_put(buffer, col, Value{top});
                }
                return Value{cols};
              })
          .arity(1)
          .reads("Vox.RayCaster", "field")
          .reads("Vox.RayCaster", "buffer")
          .reads("Vox.RayCaster", "cols")
          .reads("Vox.Camera", "x")
          .reads("Vox.Camera", "y")
          .reads("Vox.Camera", "angle")
          .reads("Vox.Camera", "height")
          .writes_elems("int[]")
          .invokes("Math", "cos", 1)
          .invokes("Math", "sin", 1)
          .invokes("Math", "sqrt", 1)
          .invokes("Vox.HeightField", "heightAt", 2)
          .build());

  reg.register_class(
      ClassBuilder("Vox.Screen")
          .source("src/apps/voxel.cpp")
          .pin(vm::PinReason::ui)
          .entry()
          .field("display", "Display")
          .field("frames")
          // Pinned: presenting columns requires the device framebuffer.
          .native_method(
              "present",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef buffer = arg(args, 0).as_ref();
                const ObjectRef display =
                    ctx.get_field(self, kScreenDisplay).as_ref();
                const std::int64_t cols = ctx.array_length(buffer);
                std::uint64_t h = 19;
                for (std::int64_t col = 0; col < cols; ++col) {
                  ctx.work(kPresentWork);
                  const std::int64_t top =
                      ctx.array_get(buffer, col).as_int();
                  h = mix(h, static_cast<std::uint64_t>(top));
                  if (col % 8 == 0) {
                    ctx.call(display, kDisplayDrawLine,
                             {Value{col}, Value{0}, Value{col}, Value{top}});
                  }
                }
                ctx.call(display, kDisplayFlush);
                const Value frames = ctx.get_field(self, kScreenFrames);
                ctx.put_field(self, kScreenFrames,
                              Value{(frames.is_int() ? frames.as_int() : 0) +
                                    1});
                return Value{static_cast<std::int64_t>(h)};
              })
          .arity(1)
          .effect(vm::NativeEffect::device_state)
          .reads("Vox.Screen", "display")
          .reads("Vox.Screen", "frames")
          .writes("Vox.Screen", "frames")
          .reads_elems("int[]")
          .invokes("Display", "drawLine", 4)
          .invokes("Display", "flush", 0)
          .build());
}

}  // namespace

void register_voxel(vm::ClassRegistry& reg) {
  register_stdlib(reg);
  if (reg.contains("Vox.HeightField")) return;
  register_classes_impl(reg);
}

std::uint64_t run_voxel(Vm& ctx, const AppParams& params) {
  const int size = params.field_size;
  const int frames = static_cast<int>(params.frames * params.scale);
  const int columns = params.columns;

  const ObjectRef display = ctx.new_object("Display");
  ctx.add_root(display);
  const ObjectRef events = ctx.new_object("EventQueue");
  ctx.add_root(events);

  const ObjectRef field = ctx.new_object("Vox.HeightField");
  ctx.add_root(field);
  ctx.call(field, kFieldInitField, {Value{size}});
  const ObjectRef generator = ctx.new_object("Vox.DiamondSquare");
  ctx.add_root(generator);
  ctx.call(generator, kGenGenerate,
           {Value{field}, Value{static_cast<std::int64_t>(params.seed)}});

  const ObjectRef camera = ctx.new_object("Vox.Camera");
  ctx.add_root(camera);
  ctx.put_field(camera, kCamX, Value{12.0});
  ctx.put_field(camera, kCamY, Value{7.0});
  ctx.put_field(camera, kCamAngle, Value{0.3});
  ctx.put_field(camera, kCamHeight, Value{40.0});

  const ObjectRef caster = ctx.new_object("Vox.RayCaster");
  ctx.add_root(caster);
  ctx.put_field(caster, kCasterField, Value{field});
  ctx.put_field(caster, kCasterBuffer,
                Value{ctx.new_int_array(columns)});
  ctx.put_field(caster, kCasterCols, Value{columns});

  const ObjectRef screen = ctx.new_object("Vox.Screen");
  ctx.add_root(screen);
  ctx.put_field(screen, kScreenDisplay, Value{display});

  std::uint64_t h = 23;
  for (int frame = 0; frame < frames; ++frame) {
    // Interactive camera movement from the (pinned) event queue.
    const std::int64_t ev = ctx.call(events, kEventsPoll).as_int();
    const double angle = ctx.get_field(camera, kCamAngle).to_real();
    ctx.put_field(camera, kCamAngle,
                  Value{angle + 0.05 * static_cast<double>(ev % 3 - 1)});
    ctx.put_field(camera, kCamX,
                  Value{ctx.get_field(camera, kCamX).to_real() + 1.5});

    ctx.call(caster, kCasterRenderFrame, {Value{camera}});
    const ObjectRef buffer = ctx.get_field(caster, kCasterBuffer).as_ref();
    const Value frame_hash = ctx.call(screen, kScreenPresent, {Value{buffer}});
    h = mix(h, static_cast<std::uint64_t>(frame_hash.as_int()));
  }

  h = mix(h, static_cast<std::uint64_t>(
                 ctx.call(field, kFieldChecksum).as_int()));
  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(screen, kScreenFrames).as_int()));

  for (const ObjectRef r :
       {display, events, field, generator, camera, caster, screen}) {
    ctx.remove_root(r);
  }
  ctx.clear_driver_roots();
  return h;
}

}  // namespace aide::apps
