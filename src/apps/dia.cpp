// Dia: an image manipulation program (Table 1 — content-based, memory
// intensive).
//
// Raster layers backed by large int[] arrays dominate memory; filter passes
// sweep the rasters through instrumented array accesses; an edit history
// keeps layer snapshots (the memory pressure); and a pinned Canvas previews
// layers through native draws that read pixels — the source of Dia's large
// remote-native fraction in Figure 8.
#include <algorithm>
#include <string>

#include "apps/apps.hpp"
#include "apps/stdlib.hpp"
#include "apps/toolkit.hpp"

namespace aide::apps {

using vm::ObjectRef;
using vm::Value;
using vm::Vm;

namespace {

constexpr SimDuration kFilterWorkPerPixel = sim_us(900);
constexpr SimDuration kFillWorkPerPixel = sim_us(120);
constexpr SimDuration kBlitWorkPerSample = sim_us(400);
constexpr int kFilterStride = 2;   // filters sample every 2nd pixel
constexpr int kPreviewStride = 8;  // canvas previews every 8th pixel

const Value& arg(std::span<const Value> args, std::size_t i) {
  static const Value nil;
  return i < args.size() ? args[i] : nil;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

constexpr FieldId kLayerPixels{0}, kLayerName{1}, kLayerW{2}, kLayerH{3};
constexpr FieldId kImageLayers{0}, kImageW{1}, kImageH{2};
constexpr FieldId kHistEntries{0}, kHistCount{1};
constexpr FieldId kCanvasDisplay{0}, kCanvasBlits{1};

// Cached call sites (resolved once per registry epoch, then MethodId
// dispatch). const, not constexpr: the resolution fields are mutable.
const vm::CallSite kListAdd{"add"};
const vm::CallSite kListGet{"get"};
const vm::CallSite kListSize{"size"};
const vm::CallSite kLayerInit{"initLayer"};
const vm::CallSite kLayerFill{"fillLayer"};
const vm::CallSite kLayerClone{"cloneLayer"};
const vm::CallSite kLayerChecksum{"checksumLayer"};
const vm::CallSite kImageInit{"initImage"};
const vm::CallSite kImageAddLayer{"addLayer"};
const vm::CallSite kImageGetLayer{"getLayer"};
const vm::CallSite kImageLayerCount{"layerCount"};
const vm::CallSite kEngineBoxBlur{"boxBlur"};
const vm::CallSite kEngineInvert{"invert"};
const vm::CallSite kHistoryPush{"pushLayer"};
const vm::CallSite kHistoryDepth{"depth"};
const vm::CallSite kCanvasBlit{"blitPreview"};
const vm::CallSite kToolbarBuild{"buildTools"};
const vm::CallSite kToolbarHighlight{"highlightTool"};
const vm::CallSite kConsolePrintln{"println"};
const vm::CallSite kDisplayDrawText{"drawText"};

void register_classes_impl(vm::ClassRegistry& reg) {
  using vm::ClassBuilder;

  reg.register_class(
      ClassBuilder("Dia.Layer")
          .source("src/apps/dia.cpp")
          .migratable()
          .entry()
          .field("pixels")
          .field("name", "String")
          .field("w")
          .field("h")
          .method("initLayer",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::int64_t w = arg(args, 0).as_int();
                    const std::int64_t h = arg(args, 1).as_int();
                    ctx.put_field(self, kLayerPixels,
                                  Value{ctx.new_int_array(w * h)});
                    ctx.put_field(self, kLayerName, arg(args, 2));
                    ctx.put_field(self, kLayerW, Value{w});
                    ctx.put_field(self, kLayerH, Value{h});
                    return Value{};
                  })
          .allocates("int[]")
          .writes("Dia.Layer", "pixels")
          .writes("Dia.Layer", "name", "String")
          .writes("Dia.Layer", "w")
          .writes("Dia.Layer", "h")
          .method("fillLayer",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef pixels =
                        ctx.get_field(self, kLayerPixels).as_ref();
                    const std::int64_t w =
                        ctx.get_field(self, kLayerW).as_int();
                    const std::int64_t h =
                        ctx.get_field(self, kLayerH).as_int();
                    const std::int64_t color = arg(args, 0).as_int();
                    for (std::int64_t i = 0; i < w * h;
                         i += kFilterStride) {
                      ctx.work(kFillWorkPerPixel);
                      ctx.array_put(
                          pixels, i,
                          Value{static_cast<std::int64_t>(
                              (color + i * 2654435761LL) & 0xFFFFFF)});
                    }
                    return Value{};
                  })
          .reads("Dia.Layer", "pixels")
          .reads("Dia.Layer", "w")
          .reads("Dia.Layer", "h")
          .writes_elems("int[]")
          .method("cloneLayer",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const std::int64_t w =
                        ctx.get_field(self, kLayerW).as_int();
                    const std::int64_t h =
                        ctx.get_field(self, kLayerH).as_int();
                    const ObjectRef src =
                        ctx.get_field(self, kLayerPixels).as_ref();
                    const ObjectRef copy = ctx.new_object("Dia.Layer");
                    ctx.call(copy, kLayerInit,
                             {Value{w}, Value{h},
                              ctx.get_field(self, kLayerName)});
                    const ObjectRef dst =
                        ctx.get_field(copy, kLayerPixels).as_ref();
                    // Snapshot via strided copy (history thumbnails keep a
                    // full-size buffer but only copy sampled content).
                    for (std::int64_t i = 0; i < w * h; i += 4) {
                      ctx.work(kFillWorkPerPixel / 2);
                      ctx.array_put(dst, i, ctx.array_get(src, i));
                    }
                    return Value{copy};
                  })
          .allocates("Dia.Layer")
          .reads("Dia.Layer", "pixels")
          .reads("Dia.Layer", "name")
          .reads("Dia.Layer", "w")
          .reads("Dia.Layer", "h")
          .reads_elems("int[]")
          .writes_elems("int[]")
          .invokes("Dia.Layer", "initLayer", 3)
          .method("checksumLayer",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef pixels =
                        ctx.get_field(self, kLayerPixels).as_ref();
                    const std::int64_t n = ctx.array_length(pixels);
                    std::uint64_t h = 3;
                    for (std::int64_t i = 0; i < n; i += 16) {
                      h = mix(h, static_cast<std::uint64_t>(
                                     ctx.array_get(pixels, i).as_int()));
                    }
                    return Value{static_cast<std::int64_t>(h)};
                  })
          .arity(0)
          .reads("Dia.Layer", "pixels")
          .reads_elems("int[]")
          .build());

  reg.register_class(
      ClassBuilder("Dia.Image")
          .source("src/apps/dia.cpp")
          .migratable()
          .entry()
          .field("layers", "ArrayList")
          .field("w")
          .field("h")
          .references("Dia.Layer")
          .method("initImage",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    ctx.put_field(self, kImageLayers, Value{make_list(ctx)});
                    ctx.put_field(self, kImageW, arg(args, 0));
                    ctx.put_field(self, kImageH, arg(args, 1));
                    return Value{};
                  })
          .allocates("ArrayList")
          .writes("Dia.Image", "layers", "ArrayList")
          .writes("Dia.Image", "w")
          .writes("Dia.Image", "h")
          .method("addLayer",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef layers =
                        ctx.get_field(self, kImageLayers).as_ref();
                    ctx.call(layers, kListAdd, {arg(args, 0)});
                    return Value{};
                  })
          .reads("Dia.Image", "layers")
          .invokes("ArrayList", "add", 1)
          .method("getLayer",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef layers =
                        ctx.get_field(self, kImageLayers).as_ref();
                    return ctx.call(layers, kListGet, {arg(args, 0)});
                  })
          .reads("Dia.Image", "layers")
          .invokes("ArrayList", "get", 1)
          .method("layerCount",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef layers =
                        ctx.get_field(self, kImageLayers).as_ref();
                    return ctx.call(layers, kListSize);
                  })
          .reads("Dia.Image", "layers")
          .invokes("ArrayList", "size", 0)
          .build());

  // Holds a device Console for progress ticks: the typed field drags the
  // engine into the pinned closure, so it is deliberately NOT declared
  // migratable.
  reg.register_class(
      ClassBuilder("Dia.FilterEngine")
          .source("src/apps/dia.cpp")
          .entry()
          .field("passes")
          .field("console", "Console")
          .references("Dia.Layer")
          .method(
              "boxBlur",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef layer = arg(args, 0).as_ref();
                const ObjectRef pixels =
                    ctx.get_field(layer, kLayerPixels).as_ref();
                const std::int64_t w = ctx.get_field(layer, kLayerW).as_int();
                const std::int64_t h = ctx.get_field(layer, kLayerH).as_int();
                const Value console = ctx.get_field(self, FieldId{1});
                for (std::int64_t y = 1; y + 1 < h; y += kFilterStride) {
                  // Progress ticks to the device console (pinned native).
                  if (console.is_ref() && !console.as_ref().is_null() &&
                      (y % 16) == 1) {
                    ctx.call(console.as_ref(), kConsolePrintln,
                             {Value{"blur row " + std::to_string(y)}});
                  }
                  for (std::int64_t x = 1; x + 1 < w; x += kFilterStride) {
                    ctx.work(kFilterWorkPerPixel);
                    const std::int64_t c =
                        ctx.array_get(pixels, y * w + x).as_int();
                    const std::int64_t l =
                        ctx.array_get(pixels, y * w + x - 1).as_int();
                    const std::int64_t u =
                        ctx.array_get(pixels, (y - 1) * w + x).as_int();
                    ctx.array_put(pixels, y * w + x,
                                  Value{(c + l + u) / 3});
                  }
                }
                const Value n = ctx.get_field(self, FieldId{0});
                ctx.put_field(self, FieldId{0},
                              Value{(n.is_int() ? n.as_int() : 0) + 1});
                return Value{};
              })
          .reads("Dia.Layer", "pixels")
          .reads("Dia.Layer", "w")
          .reads("Dia.Layer", "h")
          .reads("Dia.FilterEngine", "passes")
          .reads("Dia.FilterEngine", "console")
          .writes("Dia.FilterEngine", "passes")
          .reads_elems("int[]")
          .writes_elems("int[]")
          .invokes("Console", "println", 1)
          .method("invert",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef layer = arg(args, 0).as_ref();
                    const ObjectRef pixels =
                        ctx.get_field(layer, kLayerPixels).as_ref();
                    const std::int64_t n = ctx.array_length(pixels);
                    for (std::int64_t i = 0; i < n; i += kFilterStride) {
                      ctx.work(kFilterWorkPerPixel / 3);
                      const std::int64_t c =
                          ctx.array_get(pixels, i).as_int();
                      ctx.array_put(pixels, i, Value{0xFFFFFF - c});
                    }
                    const Value passes = ctx.get_field(self, FieldId{0});
                    ctx.put_field(
                        self, FieldId{0},
                        Value{(passes.is_int() ? passes.as_int() : 0) + 1});
                    return Value{};
                  })
          .arity(1)
          .reads("Dia.Layer", "pixels")
          .reads("Dia.FilterEngine", "passes")
          .writes("Dia.FilterEngine", "passes")
          .reads_elems("int[]")
          .writes_elems("int[]")
          .build());

  reg.register_class(
      ClassBuilder("Dia.History")
          .source("src/apps/dia.cpp")
          .migratable()
          .entry()
          .field("entries", "ArrayList")
          .field("count")
          .references("Dia.Layer")
          .method("pushLayer",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    Value entries_v = ctx.get_field(self, kHistEntries);
                    if (!entries_v.is_ref() || entries_v.as_ref().is_null()) {
                      entries_v = Value{make_list(ctx)};
                      ctx.put_field(self, kHistEntries, entries_v);
                    }
                    ctx.call(entries_v.as_ref(), kListAdd, {arg(args, 0)});
                    const Value n = ctx.get_field(self, kHistCount);
                    ctx.put_field(self, kHistCount,
                                  Value{(n.is_int() ? n.as_int() : 0) + 1});
                    return Value{};
                  })
          .allocates("ArrayList")
          .reads("Dia.History", "entries")
          .reads("Dia.History", "count")
          .writes("Dia.History", "entries", "ArrayList")
          .writes("Dia.History", "count")
          .invokes("ArrayList", "add", 1)
          .method("depth",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const Value n = ctx.get_field(self, kHistCount);
                    return n.is_int() ? n : Value{0};
                  })
          .arity(0)
          .reads("Dia.History", "count")
          .build());

  reg.register_class(
      ClassBuilder("Dia.Canvas")
          .source("src/apps/dia.cpp")
          .pin(vm::PinReason::ui)
          .entry()
          .field("display", "Display")
          .field("blits")
          .references("Dia.Layer")
          // Native preview: the framebuffer blit must happen on the client
          // device; it reads sampled pixels from the layer raster.
          .native_method(
              "blitPreview",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef layer = arg(args, 0).as_ref();
                const ObjectRef pixels =
                    ctx.get_field(layer, kLayerPixels).as_ref();
                const std::int64_t n = ctx.array_length(pixels);
                std::uint64_t h = 11;
                for (std::int64_t i = 0; i < n;
                     i += kPreviewStride * kPreviewStride) {
                  ctx.work(kBlitWorkPerSample);
                  h = mix(h, static_cast<std::uint64_t>(
                                 ctx.array_get(pixels, i).as_int()));
                }
                const Value blits = ctx.get_field(self, kCanvasBlits);
                ctx.put_field(self, kCanvasBlits,
                              Value{(blits.is_int() ? blits.as_int() : 0) +
                                    1});
                const ObjectRef display =
                    ctx.get_field(self, kCanvasDisplay).as_ref();
                ctx.call(display, kDisplayDrawText,
                         {Value{0}, Value{0},
                          Value{"preview " + std::to_string(h & 0xFFFF)}});
                return Value{static_cast<std::int64_t>(h)};
              })
          .arity(1)
          .effect(vm::NativeEffect::device_state)
          .reads("Dia.Layer", "pixels")
          .reads_elems("int[]")
          .reads("Dia.Canvas", "display")
          .reads("Dia.Canvas", "blits")
          .writes("Dia.Canvas", "blits")
          .invokes("Display", "drawText", 3)
          .build());

  reg.register_class(
      ClassBuilder("Dia.ToolBar")
          .source("src/apps/dia.cpp")
          .entry()
          .field("display", "Display")
          .field("labels", "ArrayList")
          .references("String")
          .method("buildTools",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef labels = make_list(ctx);
                    for (const char* name :
                         {"select", "brush", "fill", "blur", "invert",
                          "clone", "text", "zoom"}) {
                      list_add(ctx, labels, Value{make_string(ctx, name)});
                    }
                    ctx.put_field(self, FieldId{1}, Value{labels});
                    return Value{};
                  })
          .allocates("ArrayList")
          .allocates("String")
          .writes("String", "value")
          .writes("Dia.ToolBar", "labels", "ArrayList")
          .invokes("ArrayList", "add", 1)
          .method("highlightTool",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef labels =
                        ctx.get_field(self, FieldId{1}).as_ref();
                    const std::int64_t n = ctx.call(labels, kListSize).as_int();
                    const ObjectRef label =
                        ctx.call(labels, kListGet, {Value{arg(args, 0).as_int() % n}})
                            .as_ref();
                    const ObjectRef display =
                        ctx.get_field(self, FieldId{0}).as_ref();
                    ctx.call(display, kDisplayDrawText,
                             {Value{4}, Value{4},
                              Value{string_value(ctx, label)}});
                    return Value{};
                  })
          .reads("Dia.ToolBar", "labels")
          .reads("Dia.ToolBar", "display")
          .reads("String", "value")
          .invokes("ArrayList", "size", 0)
          .invokes("ArrayList", "get", 1)
          .invokes("Display", "drawText", 3)
          .build());
}

}  // namespace

void register_dia(vm::ClassRegistry& reg) {
  register_toolkit(reg);
  if (reg.contains("Dia.Layer")) return;
  register_classes_impl(reg);
}

std::uint64_t run_dia(Vm& ctx, const AppParams& params) {
  const int size = static_cast<int>(params.image_size * params.scale);
  const int layers = params.layers;
  const int passes = params.filter_passes;

  const ObjectRef display = ctx.new_object("Display");
  ctx.add_root(display);

  const ObjectRef image = ctx.new_object("Dia.Image");
  ctx.add_root(image);
  ctx.call(image, kImageInit, {Value{size}, Value{size}});

  const ObjectRef console = ctx.new_object("Console");
  ctx.add_root(console);
  const ObjectRef engine = ctx.new_object("Dia.FilterEngine");
  ctx.add_root(engine);
  ctx.put_field(engine, FieldId{1}, Value{console});
  const ObjectRef history = ctx.new_object("Dia.History");
  ctx.add_root(history);

  const ObjectRef canvas = ctx.new_object("Dia.Canvas");
  ctx.add_root(canvas);
  ctx.put_field(canvas, kCanvasDisplay, Value{display});
  ctx.put_field(canvas, kCanvasBlits, Value{0});

  const ObjectRef toolbar = ctx.new_object("Dia.ToolBar");
  ctx.add_root(toolbar);
  ctx.put_field(toolbar, FieldId{0}, Value{display});
  ctx.call(toolbar, kToolbarBuild);

  const ObjectRef window =
      build_standard_window(ctx, display, "Dia - composition", 8, 3);
  ctx.add_root(window);
  paint_window(ctx, window);

  for (int i = 0; i < layers; ++i) {
    const ObjectRef layer = ctx.new_object("Dia.Layer");
    ctx.call(layer, kLayerInit,
             {Value{size}, Value{size},
              Value{make_string(ctx, "layer" + std::to_string(i))}});
    ctx.call(layer, kLayerFill, {Value{0x101010 * (i + 1)}});
    ctx.call(image, kImageAddLayer, {Value{layer}});
    ctx.call(canvas, kCanvasBlit, {Value{layer}});
  }

  for (int pass = 0; pass < passes; ++pass) {
    const std::int64_t which = pass % layers;
    const ObjectRef layer =
        ctx.call(image, kImageGetLayer, {Value{which}}).as_ref();
    ctx.call(toolbar, kToolbarHighlight, {Value{pass}});
    dispatch_ui_event(ctx, window, pass);
    paint_window(ctx, window);
    // Snapshot before the destructive edit.
    const Value snapshot = ctx.call(layer, kLayerClone);
    ctx.call(history, kHistoryPush, {snapshot});
    if (pass % 2 == 0) {
      ctx.call(engine, kEngineBoxBlur, {Value{layer}});
    } else {
      ctx.call(engine, kEngineInvert, {Value{layer}});
    }
    ctx.call(canvas, kCanvasBlit, {Value{layer}});
  }

  std::uint64_t h = 17;
  const std::int64_t layer_count = ctx.call(image, kImageLayerCount).as_int();
  for (std::int64_t i = 0; i < layer_count; ++i) {
    const ObjectRef layer = ctx.call(image, kImageGetLayer, {Value{i}}).as_ref();
    h = mix(h, static_cast<std::uint64_t>(
                   ctx.call(layer, kLayerChecksum).as_int()));
  }
  h = mix(h, static_cast<std::uint64_t>(ctx.call(history, kHistoryDepth).as_int()));
  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(display, FieldId{1}).is_int()
                     ? ctx.get_field(display, FieldId{1}).as_int()
                     : 0));

  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(window, FieldId{5}).as_int()));
  for (const ObjectRef r :
       {display, console, image, engine, history, canvas, toolbar, window}) {
    ctx.remove_root(r);
  }
  ctx.clear_driver_roots();
  return h;
}

}  // namespace aide::apps
