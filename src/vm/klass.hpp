// Class definitions and the shared class registry.
//
// A ClassDef describes instance fields, methods (managed or native), and
// static slots. Method bodies are C++ callables that interact with the VM
// exclusively through the VmContext API — every field access, invocation and
// allocation they perform flows through the VM's instrumented paths, which is
// precisely where the paper hooks its modified JVM (section 3.4).
//
// Native methods model Java methods "implemented with native code": they are
// not migratable, and by default they must execute on the client VM (paper
// 3.2). Stateless natives (Math functions, string utilities) can be relaxed
// to execute wherever they are invoked when the corresponding enhancement is
// enabled (paper 5.2).
//
// Both VMs share one immutable ClassRegistry — the paper's simplifying
// assumption that "both VMs have access to the application's Java bytecodes"
// (section 4).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/simclock.hpp"
#include "vm/value.hpp"

namespace aide::vm {

class Vm;
// Managed method bodies receive the VM they execute on as their context.
using VmContext = Vm;

// Heterogeneous string → index map: lets string_view lookups skip the
// temporary std::string the default hasher would force.
struct TransparentStringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
using SymbolIndex = std::unordered_map<std::string, std::uint32_t,
                                       TransparentStringHash, std::equal_to<>>;

// find_static's "not found" result, mirroring MethodId/FieldId::invalid().
inline constexpr std::uint32_t kInvalidStaticSlot = 0xFFFFFFFFU;

// Monotone global counter stamping every ClassRegistry mutation. Two
// registries can never share an epoch, so a call-site cache keyed by epoch is
// automatically invalid against any registry other than the one it was
// resolved in (and against the same registry after late registration).
inline std::uint64_t next_registry_epoch() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Body of a managed or native method. `self` is null for static methods.
using MethodBody =
    std::function<Value(VmContext&, ObjectRef self, std::span<const Value>)>;

enum class MethodKind : std::uint8_t { managed, native };

// Why a class cannot leave the client device. `stateful_native` is derived
// from the method table (the paper's rule); `ui` and `user_pinned` are
// explicit declarations so diagnostics and static hints can explain the pin.
enum class PinReason : std::uint8_t { none, stateful_native, ui, user_pinned };

[[nodiscard]] constexpr std::string_view to_string(PinReason r) noexcept {
  switch (r) {
    case PinReason::none: return "none";
    case PinReason::stateful_native: return "stateful-native";
    case PinReason::ui: return "ui";
    case PinReason::user_pinned: return "user-pinned";
  }
  return "none";
}

// Declared side-effect class of a native method. Stateless natives are pure
// by construction; stateful natives should declare `device_state` so the
// static analyzer can tell "touches the device" apart from "forgot to say".
enum class NativeEffect : std::uint8_t { undeclared, pure, device_state };

// One operation of a method's declared effect IR — the method-level
// instruction stream the interprocedural effect analyzer (src/analysis)
// walks. Method bodies are opaque C++ callables, so the IR is declared next
// to the body through the ClassBuilder fluent calls; the analyzer resolves
// the names against the registry, infers whole-program summaries by fixpoint
// and audits the coarse metadata (NativeEffect, arity, field types) against
// them, aidelint takes its static call edges from the cross-class `call`
// ops, and the runtime effect-recorder tests audit the IR itself against
// observed execution. Execution never consults the IR.
enum class EffectOpKind : std::uint8_t {
  read_field,    // reads instance field `member` of class `cls`
  write_field,   // writes it (value_type: declared class of stored refs)
  read_static,   // reads static slot `member` of class `cls`
  write_static,  // writes it
  read_elems,    // reads elements of array class `cls` (int[]/char[]/...)
  write_elems,   // writes them
  alloc,         // allocates an instance of `cls`
  call,          // invokes `cls.member` with `argc` arguments (-1 unknown)
  yield,         // reaches an explicit yield point (forces a GC / flush)
};

[[nodiscard]] constexpr std::string_view to_string(EffectOpKind k) noexcept {
  switch (k) {
    case EffectOpKind::read_field: return "read-field";
    case EffectOpKind::write_field: return "write-field";
    case EffectOpKind::read_static: return "read-static";
    case EffectOpKind::write_static: return "write-static";
    case EffectOpKind::read_elems: return "read-elems";
    case EffectOpKind::write_elems: return "write-elems";
    case EffectOpKind::alloc: return "alloc";
    case EffectOpKind::call: return "call";
    case EffectOpKind::yield: return "yield";
  }
  return "?";
}

// `member` may be "*" — the op may touch any member of the class (used for
// index-addressed reference arrays and reflective access).
struct EffectOp {
  EffectOpKind kind = EffectOpKind::read_field;
  std::string cls;
  std::string member;
  int argc = -1;           // call only
  std::string value_type;  // write_field only: class of ref values stored
};

struct MethodDef {
  std::string name;
  MethodKind kind = MethodKind::managed;
  bool is_static = false;
  // Stateless/idempotent native (math, string copy): may run on either VM
  // when the stateless-native enhancement is enabled.
  bool stateless = false;
  // Declared side effect (natives only; managed bodies are fully
  // instrumented and need no declaration).
  NativeEffect effect = NativeEffect::undeclared;
  // Declared parameter count (-1 = undeclared; bodies take a span, so the
  // arity is not recoverable from the signature).
  int declared_arity = -1;
  // Declared effect IR (see EffectOp). `has_ir` distinguishes "no effects"
  // (empty list, explicitly declared pure) from "never declared" — the
  // analyzer treats the latter as ⊤ (may do anything).
  bool has_ir = false;
  std::vector<EffectOp> ir{};
  // Fixed CPU work charged when the method body starts (in addition to any
  // explicit VmContext::work the body performs).
  SimDuration base_cost = 0;
  MethodBody body;
};

struct FieldDef {
  std::string name;
  // Declared managed class of the values this field holds; empty for
  // primitive/untyped slots. Drives the analyzer's static reference graph.
  std::string type;
};

struct ClassDef {
  ClassId id;
  std::string name;
  std::vector<FieldDef> fields;
  std::vector<MethodDef> methods;
  std::vector<std::string> statics;  // static slot names (data lives on client)

  // Explicitly declared pin reason (ui, user_pinned). `stateful_native` need
  // not be declared: it is derived from the method table.
  PinReason pin_reason = PinReason::none;
  // Author asserts this class is safe and intended to be offloaded. A
  // migratable class inside the pinned closure is a lint ERROR.
  bool declared_migratable = false;
  // Instantiated directly by the embedding driver (the "main" of a scenario);
  // exempt from dead-class and pinned-leaf lints.
  bool entry = false;
  // Source file anchor for diagnostics (optional).
  std::string source;
  // Additional class references (field accesses, allocations) that are not
  // captured by a typed field or a method's IR call.
  std::vector<std::string> refs;

  // First index of this class's statics in the VM's flat statics table;
  // assigned at registration.
  std::uint32_t static_base = 0;

  // True if any method is native and stateful — such classes are pinned to
  // the client device (paper 3.3: the client partition is seeded with
  // "classes that cannot be offloaded, such as classes that contain native
  // methods").
  [[nodiscard]] bool has_stateful_native() const noexcept {
    for (const auto& m : methods) {
      if (m.kind == MethodKind::native && !m.stateless) return true;
    }
    return false;
  }

  // The reason this class is pinned: the explicit declaration when present,
  // otherwise derived from the method table.
  [[nodiscard]] PinReason effective_pin_reason() const noexcept {
    if (pin_reason != PinReason::none) return pin_reason;
    return has_stateful_native() ? PinReason::stateful_native
                                 : PinReason::none;
  }

  [[nodiscard]] bool is_pinned() const noexcept {
    return effective_pin_reason() != PinReason::none;
  }

  [[nodiscard]] MethodId find_method(std::string_view name) const {
    if (!method_index_.empty()) {
      const auto it = method_index_.find(name);
      return it == method_index_.end() ? MethodId::invalid()
                                       : MethodId{it->second};
    }
    // Unregistered defs (builder output inspected directly) have no index.
    for (std::size_t i = 0; i < methods.size(); ++i) {
      if (methods[i].name == name) {
        return MethodId{static_cast<std::uint32_t>(i)};
      }
    }
    return MethodId::invalid();
  }

  [[nodiscard]] FieldId find_field(std::string_view name) const {
    if (!field_index_.empty()) {
      const auto it = field_index_.find(name);
      return it == field_index_.end() ? FieldId::invalid()
                                      : FieldId{it->second};
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].name == name) {
        return FieldId{static_cast<std::uint32_t>(i)};
      }
    }
    return FieldId::invalid();
  }

  // Returns kInvalidStaticSlot when absent, matching find_method/find_field.
  [[nodiscard]] std::uint32_t find_static(std::string_view name) const {
    if (!static_index_.empty()) {
      const auto it = static_index_.find(name);
      return it == static_index_.end() ? kInvalidStaticSlot : it->second;
    }
    for (std::size_t i = 0; i < statics.size(); ++i) {
      if (statics[i] == name) return static_cast<std::uint32_t>(i);
    }
    return kInvalidStaticSlot;
  }

  // find_static that throws on a missing slot — for callers resolving a
  // user-supplied name where "unknown static" is an error, not a probe.
  [[nodiscard]] std::uint32_t require_static(std::string_view name) const {
    const std::uint32_t slot = find_static(name);
    if (slot == kInvalidStaticSlot) {
      throw VmError(VmErrorCode::unknown_field,
                    "static slot " + std::string(name) + " in " + this->name);
    }
    return slot;
  }

  // Builds the interned symbol tables; called once at registration.
  void build_index() {
    method_index_.clear();
    field_index_.clear();
    static_index_.clear();
    for (std::size_t i = 0; i < methods.size(); ++i) {
      // First definition wins, matching the old linear scan.
      method_index_.try_emplace(methods[i].name,
                                static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      field_index_.try_emplace(fields[i].name, static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = 0; i < statics.size(); ++i) {
      static_index_.try_emplace(statics[i], static_cast<std::uint32_t>(i));
    }
  }

 private:
  SymbolIndex method_index_;
  SymbolIndex field_index_;
  SymbolIndex static_index_;
};

// A cached call site: resolves a method name against a receiver's class once
// and reuses the MethodId until the receiver class or the registry epoch
// changes (monomorphic inline cache). Intended to live as a file-scope
// constant next to the calling code, so the resolution state is mutable.
// The name must outlive the call site — string literals in practice.
class CallSite {
 public:
  explicit constexpr CallSite(std::string_view method) noexcept
      : method_(method) {}

  [[nodiscard]] std::string_view method() const noexcept { return method_; }

 private:
  friend class Vm;
  std::string_view method_;
  mutable std::uint64_t epoch_ = 0;  // 0 never matches a live registry
  mutable ClassId cls_ = ClassId::invalid();
  mutable MethodId mid_ = MethodId::invalid();
  // Resolved to a managed instance method with a body — eligible for the
  // lean local dispatch route (no placement rules, no static/kind
  // re-checks). `mdef_` caches the resolved method; it is only dereferenced
  // after the epoch check passes, which guarantees the registry (and thus
  // the ClassDef storage the pointer aims into) has not changed since
  // resolution.
  mutable bool fast_ok_ = false;
  mutable const MethodDef* mdef_ = nullptr;
};

// Cached static call site: class name + method name resolved once per
// registry epoch.
class StaticCallSite {
 public:
  constexpr StaticCallSite(std::string_view cls, std::string_view method) noexcept
      : cls_name_(cls), method_(method) {}

  [[nodiscard]] std::string_view class_name() const noexcept {
    return cls_name_;
  }
  [[nodiscard]] std::string_view method() const noexcept { return method_; }

 private:
  friend class Vm;
  std::string_view cls_name_;
  std::string_view method_;
  mutable std::uint64_t epoch_ = 0;
  mutable ClassId cls_ = ClassId::invalid();
  mutable MethodId mid_ = MethodId::invalid();
};

// Fluent builder used by the managed standard library and the applications.
class ClassBuilder {
 public:
  explicit ClassBuilder(std::string name) { def_.name = std::move(name); }

  ClassBuilder& field(std::string name) {
    def_.fields.push_back(FieldDef{.name = std::move(name), .type = {}});
    return *this;
  }

  // Field whose values are declared to be instances of `type`.
  ClassBuilder& field(std::string name, std::string type) {
    def_.fields.push_back(
        FieldDef{.name = std::move(name), .type = std::move(type)});
    return *this;
  }

  ClassBuilder& static_slot(std::string name) {
    def_.statics.push_back(std::move(name));
    return *this;
  }

  ClassBuilder& method(std::string name, MethodBody body,
                       SimDuration base_cost = sim_ns(200)) {
    def_.methods.push_back(MethodDef{.name = std::move(name),
                                     .kind = MethodKind::managed,
                                     .base_cost = base_cost,
                                     .body = std::move(body)});
    return *this;
  }

  ClassBuilder& static_method(std::string name, MethodBody body,
                              SimDuration base_cost = sim_ns(200)) {
    def_.methods.push_back(MethodDef{.name = std::move(name),
                                     .kind = MethodKind::managed,
                                     .is_static = true,
                                     .base_cost = base_cost,
                                     .body = std::move(body)});
    return *this;
  }

  ClassBuilder& native_method(std::string name, MethodBody body,
                              bool stateless = false, bool is_static = false,
                              SimDuration base_cost = sim_ns(400)) {
    def_.methods.push_back(MethodDef{.name = std::move(name),
                                     .kind = MethodKind::native,
                                     .is_static = is_static,
                                     .stateless = stateless,
                                     // Stateless natives are pure by
                                     // construction; stateful ones must
                                     // declare their effect explicitly.
                                     .effect = stateless
                                                   ? NativeEffect::pure
                                                   : NativeEffect::undeclared,
                                     .base_cost = base_cost,
                                     .body = std::move(body)});
    return *this;
  }

  // ---- static metadata (consumed by src/analysis, never by execution) ----

  ClassBuilder& pin(PinReason reason) {
    def_.pin_reason = reason;
    return *this;
  }

  ClassBuilder& migratable() {
    def_.declared_migratable = true;
    return *this;
  }

  ClassBuilder& entry() {
    def_.entry = true;
    return *this;
  }

  ClassBuilder& source(std::string file) {
    def_.source = std::move(file);
    return *this;
  }

  // Declares a class reference not captured by a typed field or an IR call.
  ClassBuilder& references(std::string target_class) {
    def_.refs.push_back(std::move(target_class));
    return *this;
  }

  // Declares the parameter count of the most recently added method.
  ClassBuilder& arity(int argc) {
    if (!def_.methods.empty()) def_.methods.back().declared_arity = argc;
    return *this;
  }

  // Declares the side effect of the most recently added method.
  ClassBuilder& effect(NativeEffect e) {
    if (!def_.methods.empty()) def_.methods.back().effect = e;
    return *this;
  }

  // ---- method effect IR (consumed by src/analysis effect inference) -------
  //
  // Each call appends one EffectOp to the most recently added method and
  // marks it IR-covered. A method whose body has no effects at all declares
  // that explicitly with no_effects().

  ClassBuilder& reads(std::string cls, std::string member) {
    return ir_op(make_op(EffectOpKind::read_field, std::move(cls),
                         std::move(member)));
  }

  // `value_type` (optional) declares the class of reference values this
  // write stores into the field; the analyzer audits it against the field's
  // declared type.
  ClassBuilder& writes(std::string cls, std::string member,
                       std::string value_type = {}) {
    EffectOp op = make_op(EffectOpKind::write_field, std::move(cls),
                          std::move(member));
    op.value_type = std::move(value_type);
    return ir_op(std::move(op));
  }

  ClassBuilder& reads_static(std::string cls, std::string slot) {
    return ir_op(make_op(EffectOpKind::read_static, std::move(cls),
                         std::move(slot)));
  }

  ClassBuilder& writes_static(std::string cls, std::string slot) {
    return ir_op(make_op(EffectOpKind::write_static, std::move(cls),
                         std::move(slot)));
  }

  ClassBuilder& reads_elems(std::string array_cls) {
    return ir_op(make_op(EffectOpKind::read_elems, std::move(array_cls), "*"));
  }

  ClassBuilder& writes_elems(std::string array_cls) {
    return ir_op(make_op(EffectOpKind::write_elems, std::move(array_cls), "*"));
  }

  ClassBuilder& allocates(std::string cls) {
    return ir_op(make_op(EffectOpKind::alloc, std::move(cls), {}));
  }

  ClassBuilder& invokes(std::string cls, std::string method, int argc = -1) {
    EffectOp op = make_op(EffectOpKind::call, std::move(cls),
                          std::move(method));
    op.argc = argc;
    return ir_op(std::move(op));
  }

  ClassBuilder& yields() {
    return ir_op(make_op(EffectOpKind::yield, {}, {}));
  }

  // Declares the most recent method effect-free (empty IR, explicitly pure).
  ClassBuilder& no_effects() {
    if (!def_.methods.empty()) def_.methods.back().has_ir = true;
    return *this;
  }

  // Consumes the builder; the chained fluent calls return lvalue references,
  // so this is deliberately not rvalue-qualified.
  [[nodiscard]] ClassDef build() { return std::move(def_); }

 private:
  static EffectOp make_op(EffectOpKind kind, std::string cls,
                          std::string member) {
    EffectOp op;
    op.kind = kind;
    op.cls = std::move(cls);
    op.member = std::move(member);
    return op;
  }

  ClassBuilder& ir_op(EffectOp op) {
    if (!def_.methods.empty()) {
      def_.methods.back().has_ir = true;
      def_.methods.back().ir.push_back(std::move(op));
    }
    return *this;
  }

  ClassDef def_;
};

// Immutable after setup; shared by client and surrogate VMs.
class ClassRegistry {
 public:
  ClassRegistry() {
    // Well-known array classes are always present. Reference arrays are
    // plain objects whose field count is fixed at allocation time.
    int_array_ = register_class(ClassBuilder("int[]").build());
    char_array_ = register_class(ClassBuilder("char[]").build());
    object_array_ = register_class(ClassBuilder("Object[]").build());
  }

  ClassId register_class(ClassDef def) {
    const ClassId id{static_cast<std::uint32_t>(classes_.size())};
    def.id = id;
    def.static_base = static_slot_count_;
    static_slot_count_ += static_cast<std::uint32_t>(def.statics.size());
    def.build_index();
    by_name_[def.name] = id;
    classes_.push_back(std::move(def));
    epoch_ = next_registry_epoch();
    return id;
  }

  [[nodiscard]] const ClassDef& get(ClassId id) const {
    if (id.value() >= classes_.size()) {
      throw VmError(VmErrorCode::unknown_class,
                    "class id " + std::to_string(id.value()));
    }
    return classes_[id.value()];
  }

  [[nodiscard]] ClassId find(std::string_view name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      throw VmError(VmErrorCode::unknown_class, std::string(name));
    }
    return it->second;
  }

  [[nodiscard]] bool contains(std::string_view name) const {
    return by_name_.find(name) != by_name_.end();
  }

  [[nodiscard]] std::size_t size() const noexcept { return classes_.size(); }

  // Read-only whole-program traversal for static analyses: every registered
  // class, in registration (ClassId) order. The span is invalidated by the
  // next register_class.
  [[nodiscard]] std::span<const ClassDef> classes() const noexcept {
    return classes_;
  }

  // Bumped on every registration; never shared between registry instances.
  // Call-site caches compare against this to detect staleness.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // Total static slots across all registered classes — the size of the VM's
  // flat statics table (each class's slots start at its static_base).
  [[nodiscard]] std::uint32_t static_slot_count() const noexcept {
    return static_slot_count_;
  }

  [[nodiscard]] ClassId int_array_class() const noexcept { return int_array_; }
  [[nodiscard]] ClassId char_array_class() const noexcept {
    return char_array_;
  }
  [[nodiscard]] ClassId object_array_class() const noexcept {
    return object_array_;
  }

 private:
  std::vector<ClassDef> classes_;
  std::unordered_map<std::string, ClassId, TransparentStringHash,
                     std::equal_to<>>
      by_name_;
  ClassId int_array_;
  ClassId char_array_;
  ClassId object_array_;
  std::uint64_t epoch_ = next_registry_epoch();
  std::uint32_t static_slot_count_ = 0;
};

}  // namespace aide::vm
