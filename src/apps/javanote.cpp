// JavaNote: a simple text editor (Table 1 — content-based, memory intensive).
//
// The paper's section 5.1 scenario: load a 600 KB text file into a 6 MB Java
// heap, then edit and scroll. The editor's data model (text segments backed
// by char[] arrays, a line index, a render cache of String objects, a
// snapshotting undo stack) dominates memory; the view renders through pinned
// Display natives. The data side and the UI side are cleanly separable, so
// offloading relieves the memory constraint at a modest remote-interaction
// cost — the paper measured 4.8% overhead.
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

// Virtual-work calibration constants. These model a 2001-era handheld
// executing interpreted bytecode; absolute values are arbitrary but chosen so
// the scenario's virtual duration lands in the paper's hundreds-of-seconds
// range.
constexpr SimDuration kIoWorkPerByte = sim_ns(600);
constexpr SimDuration kScanWorkPerByte = sim_ns(120);
constexpr SimDuration kLineLayoutWork = sim_us(3500);
constexpr SimDuration kRenderLineWork = sim_us(7000);
constexpr SimDuration kEditWork = sim_us(2500);

constexpr std::int64_t kSegContentBytes = 4096;
// Segments over-allocate 2x for gap-buffer headroom.
constexpr std::int64_t kSegCapacityBytes = 2 * kSegContentBytes;
constexpr int kViewRows = 20;

const Value& arg(std::span<const Value> args, std::size_t i) {
  static const Value nil;
  return i < args.size() ? args[i] : nil;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t str_hash(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

// Field layouts.
constexpr FieldId kSegData{0}, kSegUsed{1};
constexpr FieldId kDocSegs{0}, kDocCount{1}, kDocLength{2};
constexpr FieldId kIdxStarts{0}, kIdxSegOf{1}, kIdxCount{2};
constexpr FieldId kCacheLines{0}, kCacheHl{1}, kCacheCount{2};
constexpr FieldId kUndoEntries{0}, kUndoCount{1};
constexpr FieldId kCoreDoc{0}, kCoreIdx{1}, kCoreCache{2}, kCoreUndo{3},
    kCoreCaret{4};
constexpr FieldId kCaretLine{0}, kCaretCol{1};
constexpr FieldId kViewCore{0}, kViewDisplay{1}, kViewStatus{2}, kViewTop{3};
constexpr FieldId kStatusDisplay{0}, kStatusUpdates{1};

// Cached call sites (resolved once per registry epoch, then MethodId
// dispatch). const, not constexpr: the resolution fields are mutable.
const vm::CallSite kListAdd{"add"};
const vm::CallSite kSegInit{"initSeg"};
const vm::CallSite kSegWrite{"write"};
const vm::CallSite kSegReadAll{"readAll"};
const vm::CallSite kSegSnapshot{"snapshot"};
const vm::CallSite kDocInit{"initDoc"};
const vm::CallSite kDocAddSegment{"addSegment"};
const vm::CallSite kDocGetSegment{"getSegment"};
const vm::CallSite kDocSegmentCount{"segmentCount"};
const vm::CallSite kDocChecksum{"checksumDoc"};
const vm::CallSite kIndexRebuild{"rebuild"};
const vm::CallSite kCacheBuild{"build"};
const vm::CallSite kCacheGetLine{"getLine"};
const vm::CallSite kCacheRefreshLine{"refreshLine"};
const vm::CallSite kCacheLineCount{"lineCountC"};
const vm::CallSite kUndoPushSnap{"pushSnap"};
const vm::CallSite kUndoDepth{"depth"};
const vm::CallSite kCoreLoadFile{"loadFile"};
const vm::CallSite kCoreApplyEdit{"applyEdit"};
const vm::CallSite kCoreChecksum{"checksumCore"};
const vm::CallSite kStatusUpdate{"update"};
const vm::CallSite kViewRender{"render"};
const vm::CallSite kViewScrollTo{"scrollTo"};
const vm::CallSite kMenuBuildMenus{"buildMenus"};
const vm::CallSite kFsRead{"read"};
const vm::CallSite kEventsPoll{"poll"};
const vm::CallSite kDisplayDrawText{"drawText"};
const vm::CallSite kDisplayFlush{"flush"};
const vm::StaticCallSite kSysTimeMillis{"System", "currentTimeMillis"};
const vm::StaticCallSite kStrCopyCase{"StrUtil", "copyCase"};

void register_classes_impl(vm::ClassRegistry& reg) {
  using vm::ClassBuilder;

  reg.register_class(
      ClassBuilder("JNote.TextSegment")
          .source("src/apps/javanote.cpp")
          .migratable()
          .field("data")
          .field("used")
          .method("initSeg",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef data =
                        ctx.new_char_array(kSegCapacityBytes);
                    ctx.put_field(self, kSegData, Value{data});
                    ctx.put_field(self, kSegUsed, Value{0});
                    return Value{};
                  })
          .allocates("char[]")
          .writes("JNote.TextSegment", "data")
          .writes("JNote.TextSegment", "used")
          .method("write",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const auto& text = arg(args, 0).as_str();
                    const std::int64_t offset = arg(args, 1).as_int();
                    const ObjectRef data =
                        ctx.get_field(self, kSegData).as_ref();
                    ctx.work(kIoWorkPerByte *
                             static_cast<SimDuration>(text.size()));
                    ctx.chars_write(data, offset, text);
                    const std::int64_t used =
                        ctx.get_field(self, kSegUsed).as_int();
                    ctx.put_field(
                        self, kSegUsed,
                        Value{std::max<std::int64_t>(
                            used, offset + static_cast<std::int64_t>(
                                               text.size()))});
                    return Value{};
                  })
          .reads("JNote.TextSegment", "data")
          .reads("JNote.TextSegment", "used")
          .writes("JNote.TextSegment", "used")
          .writes_elems("char[]")
          .method("readAll",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef data =
                        ctx.get_field(self, kSegData).as_ref();
                    const std::int64_t used =
                        ctx.get_field(self, kSegUsed).as_int();
                    ctx.work(kScanWorkPerByte *
                             static_cast<SimDuration>(used));
                    return Value{ctx.chars_read(data, 0, used)};
                  })
          .reads("JNote.TextSegment", "data")
          .reads("JNote.TextSegment", "used")
          .reads_elems("char[]")
          .method("readSlice",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef data =
                        ctx.get_field(self, kSegData).as_ref();
                    const std::int64_t used =
                        ctx.get_field(self, kSegUsed).as_int();
                    const std::int64_t off =
                        std::min(arg(args, 0).as_int(), used);
                    const std::int64_t len =
                        std::min(arg(args, 1).as_int(), used - off);
                    ctx.work(kScanWorkPerByte * std::max<SimDuration>(len, 1));
                    return Value{ctx.chars_read(data, off, len)};
                  })
          .reads("JNote.TextSegment", "data")
          .reads("JNote.TextSegment", "used")
          .reads_elems("char[]")
          .method("snapshot",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    // Full-segment copy for the undo stack.
                    const ObjectRef data =
                        ctx.get_field(self, kSegData).as_ref();
                    const std::int64_t used =
                        ctx.get_field(self, kSegUsed).as_int();
                    const ObjectRef copy =
                        ctx.new_char_array(kSegCapacityBytes);
                    ctx.work(kIoWorkPerByte *
                             static_cast<SimDuration>(used));
                    ctx.chars_write(copy, 0, ctx.chars_read(data, 0, used));
                    return Value{copy};
                  })
          .reads("JNote.TextSegment", "data")
          .reads("JNote.TextSegment", "used")
          .allocates("char[]")
          .reads_elems("char[]")
          .writes_elems("char[]")
          .build());

  reg.register_class(
      ClassBuilder("JNote.Document")
          .source("src/apps/javanote.cpp")
          .migratable()
          .entry()
          .field("segments")
          .field("count")
          .field("length")
          .references("JNote.TextSegment")
          .method("initDoc",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::int64_t max_segs = arg(args, 0).as_int();
                    ctx.put_field(self, kDocSegs,
                                  Value{ctx.new_ref_array(max_segs)});
                    ctx.put_field(self, kDocCount, Value{0});
                    ctx.put_field(self, kDocLength, Value{0});
                    return Value{};
                  })
          .allocates("Object[]")
          .writes("JNote.Document", "segments")
          .writes("JNote.Document", "count")
          .writes("JNote.Document", "length")
          .method("addSegment",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef segs =
                        ctx.get_field(self, kDocSegs).as_ref();
                    const std::int64_t count =
                        ctx.get_field(self, kDocCount).as_int();
                    ctx.put_field(
                        segs, FieldId{static_cast<std::uint32_t>(count)},
                        arg(args, 0));
                    ctx.put_field(self, kDocCount, Value{count + 1});
                    const std::int64_t used =
                        ctx.get_field(arg(args, 0).as_ref(), kSegUsed)
                            .as_int();
                    const std::int64_t length =
                        ctx.get_field(self, kDocLength).as_int();
                    ctx.put_field(self, kDocLength, Value{length + used});
                    return Value{};
                  })
          .reads("JNote.Document", "segments")
          .reads("JNote.Document", "count")
          .reads("JNote.Document", "length")
          .writes("JNote.Document", "count")
          .writes("JNote.Document", "length")
          .writes_elems("Object[]")
          .reads("JNote.TextSegment", "used")
          .method("getSegment",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef segs =
                        ctx.get_field(self, kDocSegs).as_ref();
                    return ctx.get_field(
                        segs, FieldId{static_cast<std::uint32_t>(
                                  arg(args, 0).as_int())});
                  })
          .reads("JNote.Document", "segments")
          .reads_elems("Object[]")
          .method("segmentCount",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    return ctx.get_field(self, kDocCount);
                  })
          .reads("JNote.Document", "count")
          .method("checksumDoc",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const std::int64_t count =
                        ctx.get_field(self, kDocCount).as_int();
                    std::uint64_t h = 7;
                    for (std::int64_t i = 0; i < count; ++i) {
                      const ObjectRef seg =
                          ctx.call(self, kDocGetSegment, {Value{i}}).as_ref();
                      const std::string text =
                          ctx.call(seg, kSegReadAll).as_str();
                      h = mix(h, str_hash(text));
                    }
                    return Value{static_cast<std::int64_t>(h)};
                  })
          .reads("JNote.Document", "count")
          .invokes("JNote.Document", "getSegment", 1)
          .invokes("JNote.TextSegment", "readAll", 0)
          .build());

  reg.register_class(
      ClassBuilder("JNote.LineIndex")
          .source("src/apps/javanote.cpp")
          .migratable()
          .entry()
          .field("starts")
          .field("segOf")
          .field("count")
          .method(
              "rebuild",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef doc = arg(args, 0).as_ref();
                const std::int64_t seg_count =
                    ctx.call(doc, kDocSegmentCount).as_int();
                // Generous upper bound: one line per 16 bytes.
                const std::int64_t max_lines =
                    (seg_count * kSegContentBytes) / 16 + 2;
                const ObjectRef starts = ctx.new_int_array(max_lines);
                const ObjectRef seg_of = ctx.new_int_array(max_lines);
                std::int64_t lines = 0;
                for (std::int64_t s = 0; s < seg_count; ++s) {
                  const ObjectRef seg =
                      ctx.call(doc, kDocGetSegment, {Value{s}}).as_ref();
                  const std::string text = ctx.call(seg, kSegReadAll).as_str();
                  ctx.work(kScanWorkPerByte *
                           static_cast<SimDuration>(text.size()));
                  std::int64_t line_start = 0;
                  for (std::int64_t i = 0;
                       i < static_cast<std::int64_t>(text.size()); ++i) {
                    if (text[static_cast<std::size_t>(i)] == '\n' &&
                        lines < max_lines) {
                      ctx.array_put(starts, lines, Value{line_start});
                      ctx.array_put(seg_of, lines, Value{s});
                      line_start = i + 1;
                      ++lines;
                    }
                  }
                }
                ctx.put_field(self, kIdxStarts, Value{starts});
                ctx.put_field(self, kIdxSegOf, Value{seg_of});
                ctx.put_field(self, kIdxCount, Value{lines});
                return Value{lines};
              })
          .allocates("int[]")
          .writes_elems("int[]")
          .writes("JNote.LineIndex", "starts")
          .writes("JNote.LineIndex", "segOf")
          .writes("JNote.LineIndex", "count")
          .invokes("JNote.Document", "segmentCount", 0)
          .invokes("JNote.Document", "getSegment", 1)
          .invokes("JNote.TextSegment", "readAll", 0)
          .method("lineCount",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    return ctx.get_field(self, kIdxCount);
                  })
          .reads("JNote.LineIndex", "count")
          .build());

  reg.register_class(
      ClassBuilder("JNote.RenderCache")
          .source("src/apps/javanote.cpp")
          .migratable()
          .entry()
          .field("lines")
          .field("highlights")
          .field("count")
          .references("String")
          .method(
              "build",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef doc = arg(args, 0).as_ref();
                const std::int64_t seg_count =
                    ctx.call(doc, kDocSegmentCount).as_int();
                const std::int64_t max_lines =
                    (seg_count * kSegContentBytes) / 16 + 2;
                const ObjectRef lines = ctx.new_ref_array(max_lines);
                const ObjectRef highlights = ctx.new_ref_array(max_lines);
                std::int64_t count = 0;
                for (std::int64_t s = 0; s < seg_count; ++s) {
                  const ObjectRef seg =
                      ctx.call(doc, kDocGetSegment, {Value{s}}).as_ref();
                  const std::string text = ctx.call(seg, kSegReadAll).as_str();
                  std::size_t start = 0;
                  while (start < text.size() && count < max_lines) {
                    const std::size_t nl = text.find('\n', start);
                    const std::string line =
                        text.substr(start, nl == std::string::npos
                                               ? std::string::npos
                                               : nl - start);
                    ctx.work(kLineLayoutWork);
                    const ObjectRef line_str = make_string(ctx, line);
                    // Highlight runs: twice the content length (style spans
                    // plus glyph positions), modelled as an uppercase copy
                    // concatenated with the raw text.
                    const ObjectRef hl_str = ctx.new_object("String");
                    ctx.put_field(
                        hl_str, FieldId{0},
                        Value{ctx.call_static(kStrCopyCase,
                                              {Value{line}})
                                  .as_str() +
                              line});
                    ctx.put_field(lines,
                                  FieldId{static_cast<std::uint32_t>(count)},
                                  Value{line_str});
                    ctx.put_field(highlights,
                                  FieldId{static_cast<std::uint32_t>(count)},
                                  Value{hl_str});
                    ++count;
                    if (nl == std::string::npos) break;
                    start = nl + 1;
                  }
                }
                ctx.put_field(self, kCacheLines, Value{lines});
                ctx.put_field(self, kCacheHl, Value{highlights});
                ctx.put_field(self, kCacheCount, Value{count});
                return Value{count};
              })
          .allocates("Object[]")
          .allocates("String")
          .writes("String", "value")
          .writes_elems("Object[]")
          .writes("JNote.RenderCache", "lines")
          .writes("JNote.RenderCache", "highlights")
          .writes("JNote.RenderCache", "count")
          .invokes("JNote.Document", "segmentCount", 0)
          .invokes("JNote.Document", "getSegment", 1)
          .invokes("JNote.TextSegment", "readAll", 0)
          .invokes("StrUtil", "copyCase", 1)
          .method("getLine",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::int64_t count =
                        ctx.get_field(self, kCacheCount).as_int();
                    const std::int64_t i =
                        std::clamp<std::int64_t>(arg(args, 0).as_int(), 0,
                                                 count - 1);
                    const ObjectRef lines =
                        ctx.get_field(self, kCacheLines).as_ref();
                    return ctx.get_field(
                        lines, FieldId{static_cast<std::uint32_t>(i)});
                  })
          .reads("JNote.RenderCache", "count")
          .reads("JNote.RenderCache", "lines")
          .reads_elems("Object[]")
          .method("refreshLine",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const std::int64_t count =
                        ctx.get_field(self, kCacheCount).as_int();
                    const std::int64_t i =
                        std::clamp<std::int64_t>(arg(args, 0).as_int(), 0,
                                                 count - 1);
                    ctx.work(kLineLayoutWork);
                    const ObjectRef line_str =
                        make_string(ctx, arg(args, 1).as_str());
                    const ObjectRef lines =
                        ctx.get_field(self, kCacheLines).as_ref();
                    ctx.put_field(lines,
                                  FieldId{static_cast<std::uint32_t>(i)},
                                  Value{line_str});
                    return Value{};
                  })
          .reads("JNote.RenderCache", "count")
          .reads("JNote.RenderCache", "lines")
          .allocates("String")
          .writes("String", "value")
          .writes_elems("Object[]")
          .method("lineCountC",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    return ctx.get_field(self, kCacheCount);
                  })
          .reads("JNote.RenderCache", "count")
          .build());

  reg.register_class(
      ClassBuilder("JNote.UndoStack")
          .source("src/apps/javanote.cpp")
          .migratable()
          .entry()
          .field("entries", "ArrayList")
          .field("count")
          .method("pushSnap",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    Value entries_v = ctx.get_field(self, kUndoEntries);
                    if (!entries_v.is_ref() || entries_v.as_ref().is_null()) {
                      entries_v = Value{make_list(ctx)};
                      ctx.put_field(self, kUndoEntries, entries_v);
                    }
                    ctx.call(entries_v.as_ref(), kListAdd, {arg(args, 0)});
                    const Value n = ctx.get_field(self, kUndoCount);
                    ctx.put_field(self, kUndoCount,
                                  Value{(n.is_int() ? n.as_int() : 0) + 1});
                    return Value{};
                  })
          .allocates("ArrayList")
          .reads("JNote.UndoStack", "entries")
          .reads("JNote.UndoStack", "count")
          .writes("JNote.UndoStack", "entries", "ArrayList")
          .writes("JNote.UndoStack", "count")
          .invokes("ArrayList", "add", 1)
          .method("depth",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const Value n = ctx.get_field(self, kUndoCount);
                    return n.is_int() ? n : Value{0};
                  })
          .reads("JNote.UndoStack", "count")
          .build());

  reg.register_class(ClassBuilder("JNote.Caret")
                         .source("src/apps/javanote.cpp")
                         .migratable()
                         .entry()
                         .field("line")
                         .field("col")
                         .build());

  reg.register_class(
      ClassBuilder("JNote.EditorCore")
          .source("src/apps/javanote.cpp")
          .migratable()
          .entry()
          .field("doc", "JNote.Document")
          .field("index", "JNote.LineIndex")
          .field("cache", "JNote.RenderCache")
          .field("undo", "JNote.UndoStack")
          .field("caret", "JNote.Caret")
          .references("JNote.TextSegment")
          .method(
              "loadFile",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef fs = arg(args, 0).as_ref();
                const auto& path = arg(args, 1).as_str();
                const std::int64_t total = arg(args, 2).as_int();
                const ObjectRef doc = ctx.get_field(self, kCoreDoc).as_ref();
                ctx.call(doc, kDocInit,
                         {Value{total / kSegContentBytes + 2}});
                for (std::int64_t off = 0; off < total;
                     off += kSegContentBytes) {
                  const std::int64_t len =
                      std::min<std::int64_t>(kSegContentBytes, total - off);
                  const Value chunk =
                      ctx.call(fs, kFsRead,
                               {Value{path}, Value{off}, Value{len}});
                  const ObjectRef seg = ctx.new_object("JNote.TextSegment");
                  ctx.call(seg, kSegInit);
                  ctx.call(seg, kSegWrite, {chunk, Value{0}});
                  ctx.call(doc, kDocAddSegment, {Value{seg}});
                }
                return Value{total};
              })
          .reads("JNote.EditorCore", "doc")
          .allocates("JNote.TextSegment")
          .invokes("JNote.Document", "initDoc", 1)
          .invokes("JNote.Document", "addSegment", 1)
          .invokes("JNote.TextSegment", "initSeg", 0)
          .invokes("JNote.TextSegment", "write", 2)
          .invokes("FileSystem", "read", 3)
          .method(
              "applyEdit",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const std::int64_t seg_index = arg(args, 0).as_int();
                const auto& text = arg(args, 1).as_str();
                ctx.work(kEditWork);
                const ObjectRef doc = ctx.get_field(self, kCoreDoc).as_ref();
                const std::int64_t seg_count =
                    ctx.call(doc, kDocSegmentCount).as_int();
                if (seg_count == 0) return Value{false};
                const ObjectRef seg =
                    ctx.call(doc, kDocGetSegment,
                             {Value{seg_index % seg_count}})
                        .as_ref();
                // Undo snapshot (before-image), then in-place write.
                const Value snap = ctx.call(seg, kSegSnapshot);
                const ObjectRef undo =
                    ctx.get_field(self, kCoreUndo).as_ref();
                ctx.call(undo, kUndoPushSnap, {snap});
                const std::int64_t used =
                    ctx.get_field(seg, kSegUsed).as_int();
                const std::int64_t offset =
                    used > static_cast<std::int64_t>(text.size())
                        ? (seg_index * 37) %
                              (used - static_cast<std::int64_t>(text.size()))
                        : 0;
                ctx.call(seg, kSegWrite, {Value{text}, Value{offset}});
                // Refresh the touched region of the render cache.
                const ObjectRef cache =
                    ctx.get_field(self, kCoreCache).as_ref();
                const std::int64_t line =
                    (seg_index * 53) %
                    std::max<std::int64_t>(
                        ctx.call(cache, kCacheLineCount).as_int(), 1);
                ctx.call(cache, kCacheRefreshLine, {Value{line}, Value{text}});
                const ObjectRef caret =
                    ctx.get_field(self, kCoreCaret).as_ref();
                ctx.put_field(caret, kCaretLine, Value{line});
                ctx.put_field(caret, kCaretCol,
                              Value{static_cast<std::int64_t>(text.size())});
                return Value{true};
              })
          .reads("JNote.EditorCore", "doc")
          .reads("JNote.EditorCore", "undo")
          .reads("JNote.EditorCore", "cache")
          .reads("JNote.EditorCore", "caret")
          .reads("JNote.TextSegment", "used")
          .writes("JNote.Caret", "line")
          .writes("JNote.Caret", "col")
          .invokes("JNote.Document", "segmentCount", 0)
          .invokes("JNote.Document", "getSegment", 1)
          .invokes("JNote.TextSegment", "snapshot", 0)
          .invokes("JNote.TextSegment", "write", 2)
          .invokes("JNote.UndoStack", "pushSnap", 1)
          .invokes("JNote.RenderCache", "lineCountC", 0)
          .invokes("JNote.RenderCache", "refreshLine", 2)
          .method("checksumCore",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef doc =
                        ctx.get_field(self, kCoreDoc).as_ref();
                    const ObjectRef undo =
                        ctx.get_field(self, kCoreUndo).as_ref();
                    const ObjectRef caret =
                        ctx.get_field(self, kCoreCaret).as_ref();
                    std::uint64_t h = static_cast<std::uint64_t>(
                        ctx.call(doc, kDocChecksum).as_int());
                    h = mix(h, static_cast<std::uint64_t>(
                                   ctx.call(undo, kUndoDepth).as_int()));
                    h = mix(h, static_cast<std::uint64_t>(
                                   ctx.get_field(caret, kCaretLine).as_int()));
                    return Value{static_cast<std::int64_t>(h)};
                  })
          .reads("JNote.EditorCore", "doc")
          .reads("JNote.EditorCore", "undo")
          .reads("JNote.EditorCore", "caret")
          .reads("JNote.Caret", "line")
          .invokes("JNote.Document", "checksumDoc", 0)
          .invokes("JNote.UndoStack", "depth", 0)
          .build());

  reg.register_class(
      ClassBuilder("JNote.StatusBar")
          .source("src/apps/javanote.cpp")
          .entry()
          .field("display", "Display")
          .field("updates")
          .method("update",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef display =
                        ctx.get_field(self, kStatusDisplay).as_ref();
                    // The wall-clock readout is drawn but deliberately kept
                    // out of the checksummed text: transparency tests compare
                    // final state across executions whose virtual timings
                    // differ (offloaded vs not).
                    (void)ctx.call_static(kSysTimeMillis);
                    ctx.call(display, kDisplayDrawText,
                             {Value{0}, Value{479},
                              Value{"ln " +
                                    std::to_string(arg(args, 0).as_int())}});
                    const Value n = ctx.get_field(self, kStatusUpdates);
                    ctx.put_field(self, kStatusUpdates,
                                  Value{(n.is_int() ? n.as_int() : 0) + 1});
                    return Value{};
                  })
          .reads("JNote.StatusBar", "display")
          .reads("JNote.StatusBar", "updates")
          .writes("JNote.StatusBar", "updates")
          .invokes("System", "currentTimeMillis", 0)
          .invokes("Display", "drawText", 3)
          .build());

  reg.register_class(
      ClassBuilder("JNote.EditorView")
          .source("src/apps/javanote.cpp")
          .entry()
          .field("core", "JNote.EditorCore")
          .field("display", "Display")
          .field("status", "JNote.StatusBar")
          .field("topLine")
          .method(
              "render",
              [](Vm& ctx, ObjectRef self, auto) -> Value {
                const ObjectRef core =
                    ctx.get_field(self, kViewCore).as_ref();
                const ObjectRef display =
                    ctx.get_field(self, kViewDisplay).as_ref();
                const ObjectRef cache =
                    ctx.get_field(core, kCoreCache).as_ref();
                const std::int64_t top =
                    ctx.get_field(self, kViewTop).as_int();
                for (int row = 0; row < kViewRows; ++row) {
                  ctx.work(kRenderLineWork);
                  const Value line_v =
                      ctx.call(cache, kCacheGetLine, {Value{top + row}});
                  const std::string text =
                      line_v.is_ref() && !line_v.as_ref().is_null()
                          ? string_value(ctx, line_v.as_ref())
                          : "";
                  ctx.call(display, kDisplayDrawText,
                           {Value{0}, Value{row * 12}, Value{text}});
                }
                ctx.call(display, kDisplayFlush);
                return Value{};
              })
          .reads("JNote.EditorView", "core")
          .reads("JNote.EditorView", "display")
          .reads("JNote.EditorView", "topLine")
          .reads("JNote.EditorCore", "cache")
          .reads("String", "value")
          .invokes("JNote.RenderCache", "getLine", 1)
          .invokes("Display", "drawText", 3)
          .invokes("Display", "flush", 0)
          .method("scrollTo",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    ctx.put_field(self, kViewTop, arg(args, 0));
                    return ctx.call(self, kViewRender);
                  })
          .writes("JNote.EditorView", "topLine")
          .invokes("JNote.EditorView", "render", 0)
          .build());

  reg.register_class(ClassBuilder("JNote.MenuItem")
                         .source("src/apps/javanote.cpp")
                         .migratable()
                         .field("label", "String")
                         .field("shortcut")
                         .build());
  reg.register_class(
      ClassBuilder("JNote.MenuBar")
          .source("src/apps/javanote.cpp")
          .migratable()
          .entry()
          .field("menus", "ArrayList")
          .references("JNote.MenuItem")
          .references("String")
          .method("buildMenus",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const ObjectRef menus = make_list(ctx);
                    static constexpr const char* kLabels[] = {
                        "File", "Edit",   "View",  "Insert",
                        "Tools", "Window", "Help"};
                    for (const char* label : kLabels) {
                      for (int i = 0; i < 9; ++i) {
                        const ObjectRef item =
                            ctx.new_object("JNote.MenuItem");
                        ctx.put_field(item, FieldId{0},
                                      Value{make_string(
                                          ctx, std::string(label) + " #" +
                                                   std::to_string(i))});
                        ctx.put_field(item, FieldId{1}, Value{i});
                        list_add(ctx, menus, Value{item});
                      }
                    }
                    ctx.put_field(self, FieldId{0}, Value{menus});
                    return Value{};
                  })
          .allocates("ArrayList")
          .allocates("JNote.MenuItem")
          .allocates("String")
          .writes("String", "value")
          .writes("JNote.MenuItem", "label", "String")
          .writes("JNote.MenuItem", "shortcut")
          .writes("JNote.MenuBar", "menus", "ArrayList")
          .invokes("ArrayList", "add", 1)
          .build());
}

}  // namespace

void register_javanote(vm::ClassRegistry& reg) {
  register_toolkit(reg);
  if (reg.contains("JNote.Document")) return;
  register_classes_impl(reg);
}

std::uint64_t run_javanote(Vm& ctx, const AppParams& params) {
  const auto scaled = [&](auto v) {
    return static_cast<decltype(v)>(static_cast<double>(v) * params.scale);
  };
  const std::int64_t doc_bytes = scaled(params.doc_bytes);
  const int edits = scaled(params.edits);
  const int scrolls = scaled(params.scrolls);

  // System devices (pinned to the client).
  const ObjectRef display = ctx.new_object("Display");
  const ObjectRef fs = ctx.new_object("FileSystem");
  const ObjectRef events = ctx.new_object("EventQueue");
  ctx.add_root(display);
  ctx.add_root(fs);
  ctx.add_root(events);
  ctx.put_static("System", "os_name", Value{"MiniVM/CE"});
  ctx.put_static("System", "vm_version", Value{"5.1"});

  // Application object graph.
  const ObjectRef core = ctx.new_object("JNote.EditorCore");
  ctx.add_root(core);
  const ObjectRef doc = ctx.new_object("JNote.Document");
  const ObjectRef index = ctx.new_object("JNote.LineIndex");
  const ObjectRef cache = ctx.new_object("JNote.RenderCache");
  const ObjectRef undo = ctx.new_object("JNote.UndoStack");
  const ObjectRef caret = ctx.new_object("JNote.Caret");
  ctx.put_field(core, kCoreDoc, Value{doc});
  ctx.put_field(core, kCoreIdx, Value{index});
  ctx.put_field(core, kCoreCache, Value{cache});
  ctx.put_field(core, kCoreUndo, Value{undo});
  ctx.put_field(core, kCoreCaret, Value{caret});
  ctx.put_field(caret, kCaretLine, Value{0});
  ctx.put_field(caret, kCaretCol, Value{0});

  const ObjectRef status = ctx.new_object("JNote.StatusBar");
  ctx.put_field(status, kStatusDisplay, Value{display});
  ctx.put_field(status, kStatusUpdates, Value{0});
  const ObjectRef view = ctx.new_object("JNote.EditorView");
  ctx.add_root(view);
  ctx.put_field(view, kViewCore, Value{core});
  ctx.put_field(view, kViewDisplay, Value{display});
  ctx.put_field(view, kViewStatus, Value{status});
  ctx.put_field(view, kViewTop, Value{0});

  const ObjectRef menu = ctx.new_object("JNote.MenuBar");
  ctx.add_root(menu);
  ctx.call(menu, kMenuBuildMenus);

  const ObjectRef window =
      build_standard_window(ctx, display, "JavaNote - report.txt");
  ctx.add_root(window);
  paint_window(ctx, window);

  // Load the file and build the editing structures.
  ctx.call(core, kCoreLoadFile, {Value{fs}, Value{"report.txt"}, Value{doc_bytes}});
  ctx.call(index, kIndexRebuild, {Value{doc}});
  const std::int64_t lines = ctx.call(cache, kCacheBuild, {Value{doc}}).as_int();

  // Interactive session: an editing phase (undo snapshots steadily grow the
  // heap towards exhaustion) followed by a reading/scrolling phase — the
  // period during which offloaded components are exercised remotely.
  const int steps = 2 * edits + scrolls;
  std::int64_t top = 0;
  std::int64_t ui_state = 0;
  for (int step = 0; step < steps; ++step) {
    const std::int64_t ev = ctx.call(events, kEventsPoll).as_int();
    ui_state = dispatch_ui_event(ctx, window, ev);
    const bool is_edit = (step < 2 * edits) && (step % 2 == 0);
    if (is_edit) {
      ctx.call(core, kCoreApplyEdit,
               {Value{step}, Value{"<edit " + std::to_string(step) + "/>"}});
      ctx.call(view, kViewRender);
    } else {
      top = (top + 7 + step % 5) % std::max<std::int64_t>(lines - kViewRows, 1);
      ctx.call(view, kViewScrollTo, {Value{top}});
    }
    if (step % 10 == 0) {
      ctx.call(status, kStatusUpdate, {Value{top}});
      paint_window(ctx, window);
    }
  }

  // Observable final state.
  std::uint64_t h = static_cast<std::uint64_t>(
      ctx.call(core, kCoreChecksum).as_int());
  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(display, FieldId{1}).is_int()
                     ? ctx.get_field(display, FieldId{1}).as_int()
                     : 0));
  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(status, kStatusUpdates).as_int()));
  h = mix(h, static_cast<std::uint64_t>(lines));
  h = mix(h, static_cast<std::uint64_t>(ui_state));
  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(window, FieldId{5}).as_int()));

  ctx.remove_root(display);
  ctx.remove_root(fs);
  ctx.remove_root(events);
  ctx.remove_root(core);
  ctx.remove_root(view);
  ctx.remove_root(menu);
  ctx.remove_root(window);
  ctx.clear_driver_roots();
  return h;
}

}  // namespace aide::apps
