#include "apps/toolkit.hpp"

#include <string>

#include "apps/stdlib.hpp"

namespace aide::apps {

using vm::ClassBuilder;
using vm::ObjectRef;
using vm::Value;
using vm::Vm;

namespace {

const Value& arg(std::span<const Value> args, std::size_t i) {
  static const Value nil;
  return i < args.size() ? args[i] : nil;
}

constexpr SimDuration kPaintWork = sim_us(180);
constexpr SimDuration kLayoutWork = sim_us(60);

// Widget base layout shared by every concrete widget class:
//   0: bounds (ui.Rect-like "Rect" from the stdlib)
//   1: label  (String, may be nil)
//   2: state  (int)
//   3: display (Display, set at build time)
constexpr FieldId kWBounds{0}, kWLabel{1}, kWState{2}, kWDisplay{3};

// Cached call sites (resolved once per registry epoch, then MethodId
// dispatch). const, not constexpr: the resolution fields are mutable.
const vm::CallSite kListAdd{"add"};
const vm::CallSite kListGet{"get"};
const vm::CallSite kListSize{"size"};
const vm::CallSite kMapPut{"put"};
const vm::CallSite kMapGet{"get"};
const vm::CallSite kDisplayDrawLine{"drawLine"};
const vm::CallSite kDisplayDrawText{"drawText"};
const vm::CallSite kDisplayFlush{"flush"};
const vm::CallSite kWidgetPaint{"paint"};
const vm::CallSite kWidgetHandle{"handle"};
const vm::CallSite kIconInit{"initIcon"};
const vm::CallSite kLayoutLayout{"layout"};
const vm::CallSite kPanelAddChild{"addChild"};
const vm::CallSite kPanelDoLayout{"doLayout"};
const vm::CallSite kPanelPaintAll{"paintAll"};
const vm::CallSite kKeyMapBind{"bind"};
const vm::CallSite kKeyMapLookup{"lookup"};
const vm::CallSite kDispatcherDispatch{"dispatch"};
const vm::CallSite kWindowPaintTree{"paintTree"};
const vm::StaticCallSite kThemeAccentFor{"ui.Theme", "accentFor"};

// Paints a generic widget: a frame plus its label text.
Value paint_widget(Vm& ctx, ObjectRef self) {
  ctx.work(kPaintWork);
  const Value display_v = ctx.get_field(self, kWDisplay);
  if (!display_v.is_ref() || display_v.as_ref().is_null()) return Value{};
  const ObjectRef display = display_v.as_ref();
  const Value bounds_v = ctx.get_field(self, kWBounds);
  std::int64_t x = 0, y = 0, w = 10, h = 10;
  if (bounds_v.is_ref() && !bounds_v.as_ref().is_null()) {
    const ObjectRef r = bounds_v.as_ref();
    x = ctx.get_field(r, FieldId{0}).as_int();
    y = ctx.get_field(r, FieldId{1}).as_int();
    w = ctx.get_field(r, FieldId{2}).as_int();
    h = ctx.get_field(r, FieldId{3}).as_int();
  }
  ctx.call(display, kDisplayDrawLine, {Value{x}, Value{y}, Value{x + w}, Value{y}});
  ctx.call(display, kDisplayDrawLine,
           {Value{x}, Value{y + h}, Value{x + w}, Value{y + h}});
  const Value label_v = ctx.get_field(self, kWLabel);
  if (label_v.is_str()) {
    ctx.call(display, kDisplayDrawText, {Value{x + 2}, Value{y + 2}, label_v});
  }
  return Value{};
}

// Registers a widget class with the standard 4 fields, a paint method, and
// a handle method computing the new state from an event code. The declared
// Display field glues every widget to the client — aidelint places the whole
// widget family in the pinned closure.
void register_widget(vm::ClassRegistry& reg, const std::string& name,
                     std::int64_t state_stride,
                     bool driver_instantiated = true) {
  ClassBuilder b(name);
  b.source("src/apps/toolkit.cpp")
      .field("bounds", "Rect")
      .field("label")
      .field("state")
      .field("display", "Display")
      .method("paint",
              [](Vm& ctx, ObjectRef self, auto) -> Value {
                return paint_widget(ctx, self);
              })
      .arity(0)
      .reads(name, "display")
      .reads(name, "bounds")
      .reads(name, "label")
      .reads("Rect", "x")
      .reads("Rect", "y")
      .reads("Rect", "w")
      .reads("Rect", "h")
      .invokes("Display", "drawLine", 4)
      .invokes("Display", "drawText", 3)
      .method("handle",
              [state_stride](Vm& ctx, ObjectRef self, auto args) -> Value {
                const Value st = ctx.get_field(self, kWState);
                const std::int64_t next =
                    (st.is_int() ? st.as_int() : 0) +
                    state_stride * (1 + arg(args, 0).as_int() % 3);
                ctx.put_field(self, kWState, Value{next});
                return Value{next};
              })
      .arity(1)
      .reads(name, "state")
      .writes(name, "state");
  if (driver_instantiated) b.entry();
  reg.register_class(b.build());
}

ObjectRef make_rect(Vm& ctx, std::int64_t x, std::int64_t y, std::int64_t w,
                    std::int64_t h) {
  const ObjectRef r = ctx.new_object("Rect");
  ctx.put_field(r, FieldId{0}, Value{x});
  ctx.put_field(r, FieldId{1}, Value{y});
  ctx.put_field(r, FieldId{2}, Value{w});
  ctx.put_field(r, FieldId{3}, Value{h});
  return r;
}

ObjectRef make_widget(Vm& ctx, std::string_view cls, ObjectRef display,
                      std::string_view label, std::int64_t x, std::int64_t y) {
  const ObjectRef w = ctx.new_object(cls);
  ctx.put_field(w, kWBounds, Value{make_rect(ctx, x, y, 48, 14)});
  if (!label.empty()) {
    // Labels are interned primitive strings, not shared String objects: the
    // paper's "common generic types" problem means a String placed by class
    // granularity would drag every widget label across the cut.
    ctx.put_field(w, kWLabel, Value{std::string(label)});
  }
  ctx.put_field(w, kWState, Value{0});
  ctx.put_field(w, kWDisplay, Value{display});
  return w;
}

}  // namespace

void register_toolkit(vm::ClassRegistry& reg) {
  register_stdlib(reg);
  if (reg.contains("ui.Window")) return;

  // Concrete widgets.
  register_widget(reg, "ui.Button", 7);
  register_widget(reg, "ui.Label", 0);
  register_widget(reg, "ui.TextField", 3);
  register_widget(reg, "ui.CheckBox", 1);
  register_widget(reg, "ui.RadioButton", 1);
  register_widget(reg, "ui.ScrollBar", 5);
  register_widget(reg, "ui.ListBox", 11);
  register_widget(reg, "ui.ComboBox", 13);
  register_widget(reg, "ui.ProgressBar", 2);
  register_widget(reg, "ui.Separator", 0);
  // No scenario instantiates tooltips — aidelint reports it as dead code.
  register_widget(reg, "ui.ToolTip", 0, /*driver_instantiated=*/false);
  register_widget(reg, "ui.StatusField", 1);
  register_widget(reg, "ui.TabStrip", 17);
  register_widget(reg, "ui.Spinner", 4);

  // Icons: small primitive-array-backed resources.
  reg.register_class(
      ClassBuilder("ui.Icon")
          .source("src/apps/toolkit.cpp")
          .migratable()
          .entry()
          .field("pixels")
          .field("size")
          .method("initIcon",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::int64_t size = arg(args, 0).as_int();
                    const ObjectRef pixels = ctx.new_int_array(size * size);
                    const std::int64_t seed = arg(args, 1).as_int();
                    for (std::int64_t i = 0; i < size * size; i += 4) {
                      ctx.array_put(pixels, i,
                                    Value{static_cast<std::int64_t>(
                                        (seed * 2654435761LL + i) &
                                        0xFFFFFF)});
                    }
                    ctx.put_field(self, FieldId{0}, Value{pixels});
                    ctx.put_field(self, FieldId{1}, Value{size});
                    return Value{};
                  })
          .arity(2)
          .allocates("int[]")
          .writes_elems("int[]")
          .writes("ui.Icon", "pixels")
          .writes("ui.Icon", "size")
          .build());

  // Layout managers: assign widget bounds in rows/columns.
  reg.register_class(
      ClassBuilder("ui.FlowLayout")
          .source("src/apps/toolkit.cpp")
          .entry()
          .field("gap")
          .references("Rect")
          .method(
              "layout",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef children = arg(args, 0).as_ref();
                const Value gap_v = ctx.get_field(self, FieldId{0});
                const std::int64_t gap = gap_v.is_int() ? gap_v.as_int() : 4;
                const std::int64_t n = ctx.call(children, kListSize).as_int();
                std::int64_t x = gap;
                for (std::int64_t i = 0; i < n; ++i) {
                  ctx.work(kLayoutWork);
                  const ObjectRef w =
                      ctx.call(children, kListGet, {Value{i}}).as_ref();
                  const ObjectRef bounds =
                      ctx.get_field(w, kWBounds).as_ref();
                  ctx.put_field(bounds, FieldId{0}, Value{x});
                  x += ctx.get_field(bounds, FieldId{2}).as_int() + gap;
                }
                return Value{x};
              })
          .arity(1)
          .reads("ui.FlowLayout", "gap")
          .invokes("ArrayList", "size", 0)
          .invokes("ArrayList", "get", 1)
          .reads("ui.Button", "bounds")
          .reads("ui.Label", "bounds")
          .reads("ui.TextField", "bounds")
          .reads("ui.CheckBox", "bounds")
          .reads("ui.RadioButton", "bounds")
          .reads("ui.ScrollBar", "bounds")
          .reads("ui.ListBox", "bounds")
          .reads("ui.ComboBox", "bounds")
          .reads("ui.ProgressBar", "bounds")
          .reads("ui.Separator", "bounds")
          .reads("ui.StatusField", "bounds")
          .reads("ui.TabStrip", "bounds")
          .reads("ui.Spinner", "bounds")
          .reads("Rect", "w")
          .writes("Rect", "x")
          .build());

  reg.register_class(
      ClassBuilder("ui.ColumnLayout")
          .source("src/apps/toolkit.cpp")
          .entry()
          .field("gap")
          .references("Rect")
          .method(
              "layout",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef children = arg(args, 0).as_ref();
                const Value gap_v = ctx.get_field(self, FieldId{0});
                const std::int64_t gap = gap_v.is_int() ? gap_v.as_int() : 4;
                const std::int64_t n = ctx.call(children, kListSize).as_int();
                std::int64_t y = 20;
                for (std::int64_t i = 0; i < n; ++i) {
                  ctx.work(kLayoutWork);
                  const ObjectRef w =
                      ctx.call(children, kListGet, {Value{i}}).as_ref();
                  const ObjectRef bounds =
                      ctx.get_field(w, kWBounds).as_ref();
                  ctx.put_field(bounds, FieldId{1}, Value{y});
                  y += ctx.get_field(bounds, FieldId{3}).as_int() + gap;
                }
                return Value{y};
              })
          .arity(1)
          .reads("ui.ColumnLayout", "gap")
          .invokes("ArrayList", "size", 0)
          .invokes("ArrayList", "get", 1)
          .reads("ui.Button", "bounds")
          .reads("ui.Label", "bounds")
          .reads("ui.TextField", "bounds")
          .reads("ui.CheckBox", "bounds")
          .reads("ui.RadioButton", "bounds")
          .reads("ui.ScrollBar", "bounds")
          .reads("ui.ListBox", "bounds")
          .reads("ui.ComboBox", "bounds")
          .reads("ui.ProgressBar", "bounds")
          .reads("ui.Separator", "bounds")
          .reads("ui.StatusField", "bounds")
          .reads("ui.TabStrip", "bounds")
          .reads("ui.Spinner", "bounds")
          .reads("Rect", "h")
          .writes("Rect", "y")
          .build());

  // Theme: static data (lives on the client, like all statics).
  reg.register_class(ClassBuilder("ui.Theme")
                         .source("src/apps/toolkit.cpp")
                         .entry()
                         .static_slot("fg")
                         .static_slot("bg")
                         .static_slot("accent")
                         .static_method(
                             "accentFor",
                             [](Vm& ctx, ObjectRef, auto args) -> Value {
                               const ClassId cls = ctx.find_class("ui.Theme");
                               const Value accent = ctx.get_static(cls, 2);
                               return Value{(accent.is_int()
                                                 ? accent.as_int()
                                                 : 0x3366CC) ^
                                            arg(args, 0).as_int()};
                             })
                         .arity(1)
                         .reads_static("ui.Theme", "accent")
                         .build());

  // Panels hold children and delegate painting.
  reg.register_class(
      ClassBuilder("ui.Panel")
          .source("src/apps/toolkit.cpp")
          .entry()
          .field("children", "ArrayList")
          .field("layout")
          .field("title")
          .references("ui.FlowLayout")
          .references("ui.ColumnLayout")
          .method("addChild",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    Value children_v = ctx.get_field(self, FieldId{0});
                    if (!children_v.is_ref() ||
                        children_v.as_ref().is_null()) {
                      children_v = Value{make_list(ctx)};
                      ctx.put_field(self, FieldId{0}, children_v);
                    }
                    ctx.call(children_v.as_ref(), kListAdd, {arg(args, 0)});
                    return Value{};
                  })
          .arity(1)
          .reads("ui.Panel", "children")
          .allocates("ArrayList")
          .writes("ui.Panel", "children", "ArrayList")
          .invokes("ArrayList", "add", 1)
          .method("doLayout",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const Value layout_v = ctx.get_field(self, FieldId{1});
                    const Value children_v = ctx.get_field(self, FieldId{0});
                    if (layout_v.is_ref() && !layout_v.as_ref().is_null() &&
                        children_v.is_ref() &&
                        !children_v.as_ref().is_null()) {
                      return ctx.call(layout_v.as_ref(), kLayoutLayout,
                                      {children_v});
                    }
                    return Value{};
                  })
          .arity(0)
          .reads("ui.Panel", "layout")
          .reads("ui.Panel", "children")
          .invokes("ui.FlowLayout", "layout", 1)
          .invokes("ui.ColumnLayout", "layout", 1)
          .method("paintAll",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const Value children_v = ctx.get_field(self, FieldId{0});
                    if (!children_v.is_ref() ||
                        children_v.as_ref().is_null()) {
                      return Value{0};
                    }
                    const ObjectRef children = children_v.as_ref();
                    const std::int64_t n =
                        ctx.call(children, kListSize).as_int();
                    for (std::int64_t i = 0; i < n; ++i) {
                      const ObjectRef w =
                          ctx.call(children, kListGet, {Value{i}}).as_ref();
                      ctx.call(w, kWidgetPaint);
                    }
                    return Value{n};
                  })
          .arity(0)
          .reads("ui.Panel", "children")
          .invokes("ArrayList", "size", 0)
          .invokes("ArrayList", "get", 1)
          .invokes("ui.Button", "paint", 0)
          .invokes("ui.Label", "paint", 0)
          .invokes("ui.TextField", "paint", 0)
          .invokes("ui.CheckBox", "paint", 0)
          .invokes("ui.RadioButton", "paint", 0)
          .invokes("ui.ScrollBar", "paint", 0)
          .invokes("ui.ListBox", "paint", 0)
          .invokes("ui.ComboBox", "paint", 0)
          .invokes("ui.ProgressBar", "paint", 0)
          .invokes("ui.Separator", "paint", 0)
          .invokes("ui.StatusField", "paint", 0)
          .invokes("ui.TabStrip", "paint", 0)
          .invokes("ui.Spinner", "paint", 0)
          .build());

  // Keyboard map: event code -> focus index, stored in a HashMap.
  reg.register_class(
      ClassBuilder("ui.KeyMap")
          .source("src/apps/toolkit.cpp")
          .entry()
          .field("bindings", "HashMap")
          .method("bind",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    Value map_v = ctx.get_field(self, FieldId{0});
                    if (!map_v.is_ref() || map_v.as_ref().is_null()) {
                      map_v = Value{ctx.new_object("HashMap")};
                      ctx.put_field(self, FieldId{0}, map_v);
                    }
                    return ctx.call(map_v.as_ref(), kMapPut,
                                    {arg(args, 0), arg(args, 1)});
                  })
          .arity(2)
          .reads("ui.KeyMap", "bindings")
          .allocates("HashMap")
          .writes("ui.KeyMap", "bindings", "HashMap")
          .invokes("HashMap", "put", 2)
          .method("lookup",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const Value map_v = ctx.get_field(self, FieldId{0});
                    if (!map_v.is_ref() || map_v.as_ref().is_null()) {
                      return Value{};
                    }
                    return ctx.call(map_v.as_ref(), kMapGet, {arg(args, 0)});
                  })
          .arity(1)
          .reads("ui.KeyMap", "bindings")
          .invokes("HashMap", "get", 1)
          .build());

  // Event dispatcher: routes an event to the focused child of a panel.
  reg.register_class(
      ClassBuilder("ui.EventDispatcher")
          .source("src/apps/toolkit.cpp")
          .entry()
          .field("keymap", "ui.KeyMap")
          .field("dispatched")
          .references("ui.Panel")
          .method(
              "dispatch",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef panel = arg(args, 0).as_ref();
                const std::int64_t code = arg(args, 1).as_int();
                const Value keymap_v = ctx.get_field(self, FieldId{0});
                std::int64_t focus = code;
                if (keymap_v.is_ref() && !keymap_v.as_ref().is_null()) {
                  const Value bound =
                      ctx.call(keymap_v.as_ref(), kKeyMapLookup, {Value{code}});
                  if (bound.is_int()) focus = bound.as_int();
                }
                const Value children_v = ctx.get_field(panel, FieldId{0});
                if (!children_v.is_ref() || children_v.as_ref().is_null()) {
                  return Value{0};
                }
                const ObjectRef children = children_v.as_ref();
                const std::int64_t n = ctx.call(children, kListSize).as_int();
                if (n == 0) return Value{0};
                const ObjectRef target =
                    ctx.call(children, kListGet, {Value{focus % n}}).as_ref();
                const Value state = ctx.call(target, kWidgetHandle, {Value{code}});
                const Value count = ctx.get_field(self, FieldId{1});
                ctx.put_field(self, FieldId{1},
                              Value{(count.is_int() ? count.as_int() : 0) +
                                    1});
                return state;
              })
          .arity(2)
          .reads("ui.EventDispatcher", "keymap")
          .reads("ui.EventDispatcher", "dispatched")
          .writes("ui.EventDispatcher", "dispatched")
          .reads("ui.Panel", "children")
          .invokes("ui.KeyMap", "lookup", 1)
          .invokes("ArrayList", "size", 0)
          .invokes("ArrayList", "get", 1)
          .invokes("ui.Button", "handle", 1)
          .invokes("ui.Label", "handle", 1)
          .invokes("ui.TextField", "handle", 1)
          .invokes("ui.CheckBox", "handle", 1)
          .invokes("ui.RadioButton", "handle", 1)
          .invokes("ui.ScrollBar", "handle", 1)
          .invokes("ui.ListBox", "handle", 1)
          .invokes("ui.ComboBox", "handle", 1)
          .invokes("ui.ProgressBar", "handle", 1)
          .invokes("ui.Separator", "handle", 1)
          .invokes("ui.StatusField", "handle", 1)
          .invokes("ui.TabStrip", "handle", 1)
          .invokes("ui.Spinner", "handle", 1)
          .build());

  // The window ties it together.
  reg.register_class(
      ClassBuilder("ui.Window")
          .source("src/apps/toolkit.cpp")
          .entry()
          .field("title", "String")
          .field("toolbar", "ui.Panel")
          .field("content", "ui.Panel")
          .field("dispatcher", "ui.EventDispatcher")
          .field("display", "Display")
          .field("paints")
          .method("paintTree",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef display =
                        ctx.get_field(self, FieldId{4}).as_ref();
                    const Value title_v = ctx.get_field(self, FieldId{0});
                    if (title_v.is_ref() && !title_v.as_ref().is_null()) {
                      ctx.call(display, kDisplayDrawText,
                               {Value{2}, Value{2},
                                Value{string_value(ctx, title_v.as_ref())}});
                    }
                    std::int64_t painted = 0;
                    for (const FieldId panel_field : {FieldId{1}, FieldId{2}}) {
                      const Value panel_v = ctx.get_field(self, panel_field);
                      if (panel_v.is_ref() && !panel_v.as_ref().is_null()) {
                        painted +=
                            ctx.call(panel_v.as_ref(), kPanelPaintAll).as_int();
                      }
                    }
                    ctx.call(display, kDisplayFlush);
                    const Value paints = ctx.get_field(self, FieldId{5});
                    ctx.put_field(
                        self, FieldId{5},
                        Value{(paints.is_int() ? paints.as_int() : 0) + 1});
                    return Value{painted};
                  })
          .arity(0)
          .reads("ui.Window", "display")
          .reads("ui.Window", "title")
          .reads("ui.Window", "toolbar")
          .reads("ui.Window", "content")
          .reads("ui.Window", "paints")
          .writes("ui.Window", "paints")
          .reads("String", "value")
          .invokes("Display", "drawText", 3)
          .invokes("Display", "flush", 0)
          .invokes("ui.Panel", "paintAll", 0)
          .build());
}

ObjectRef build_standard_window(Vm& ctx, ObjectRef display,
                                std::string_view title, int buttons,
                                int labels) {
  const ObjectRef window = ctx.new_object("ui.Window");
  ctx.put_field(window, FieldId{0}, Value{make_string(ctx, title)});
  ctx.put_field(window, FieldId{4}, Value{display});
  ctx.put_field(window, FieldId{5}, Value{0});

  ctx.put_static("ui.Theme", "fg", Value{0x202020});
  ctx.put_static("ui.Theme", "bg", Value{0xF4F4F0});
  ctx.put_static("ui.Theme", "accent",
                 ctx.call_static(kThemeAccentFor, {Value{7}}));

  // Toolbar: buttons with icons, flow-layouted.
  const ObjectRef toolbar = ctx.new_object("ui.Panel");
  const ObjectRef flow = ctx.new_object("ui.FlowLayout");
  ctx.put_field(flow, FieldId{0}, Value{6});
  ctx.put_field(toolbar, FieldId{1}, Value{flow});
  for (int i = 0; i < buttons; ++i) {
    const ObjectRef button = make_widget(
        ctx, "ui.Button", display, "btn" + std::to_string(i), 4 + i * 52, 18);
    const ObjectRef icon = ctx.new_object("ui.Icon");
    ctx.call(icon, kIconInit, {Value{8}, Value{i}});
    ctx.call(toolbar, kPanelAddChild, {Value{button}});
  }
  ctx.call(toolbar, kPanelDoLayout);
  ctx.put_field(window, FieldId{1}, Value{toolbar});

  // Content: labels, a checkbox, scrollbar, list, status, tabs, progress.
  const ObjectRef content = ctx.new_object("ui.Panel");
  const ObjectRef column = ctx.new_object("ui.ColumnLayout");
  ctx.put_field(column, FieldId{0}, Value{3});
  ctx.put_field(content, FieldId{1}, Value{column});
  for (int i = 0; i < labels; ++i) {
    ctx.call(content, kPanelAddChild,
             {Value{make_widget(ctx, "ui.Label", display,
                                "label " + std::to_string(i), 4, 0)}});
  }
  for (const char* cls : {"ui.TextField", "ui.CheckBox", "ui.RadioButton",
                          "ui.ScrollBar", "ui.ListBox", "ui.ComboBox",
                          "ui.ProgressBar", "ui.Separator", "ui.StatusField",
                          "ui.TabStrip", "ui.Spinner"}) {
    ctx.call(content, kPanelAddChild,
             {Value{make_widget(ctx, cls, display, cls, 4, 0)}});
  }
  ctx.call(content, kPanelDoLayout);
  ctx.put_field(window, FieldId{2}, Value{content});

  // Dispatcher with a few key bindings.
  const ObjectRef dispatcher = ctx.new_object("ui.EventDispatcher");
  const ObjectRef keymap = ctx.new_object("ui.KeyMap");
  for (int code = 0; code < 7; ++code) {
    ctx.call(keymap, kKeyMapBind, {Value{code}, Value{(code * 3) % 11}});
  }
  ctx.put_field(dispatcher, FieldId{0}, Value{keymap});
  ctx.put_field(window, FieldId{3}, Value{dispatcher});
  return window;
}

void paint_window(Vm& ctx, ObjectRef window) {
  ctx.call(window, kWindowPaintTree);
}

std::int64_t dispatch_ui_event(Vm& ctx, ObjectRef window,
                               std::int64_t event_code) {
  const ObjectRef dispatcher = ctx.get_field(window, FieldId{3}).as_ref();
  const ObjectRef content = ctx.get_field(window, FieldId{2}).as_ref();
  const Value state =
      ctx.call(dispatcher, kDispatcherDispatch, {Value{content}, Value{event_code}});
  return state.is_int() ? state.as_int() : 0;
}

}  // namespace aide::apps
