// The MiniVM: a managed object runtime with instrumented execution paths.
//
// This is the reproduction's stand-in for the paper's modified HP Chai JVM.
// It provides:
//   * an object heap with capacity limits and mark-and-sweep GC whose cycle
//     reports drive the resource monitor (paper 3.4),
//   * managed and native methods whose invocations, field accesses and
//     allocations all flow through hook points (paper 3.4): the execution
//     monitor's slot, then per-kind observers,
//   * transparent remote execution: operations on objects that live on the
//     peer VM are forwarded through a RemotePeer without the application
//     noticing (paper 3.2),
//   * the paper's placement rules — natives and static data on the client,
//     static managed methods on either VM, new objects on the creating VM,
//   * migration primitives (extract an object, leave a stub; adopt an object,
//     drop the stub) used by the offloading engine,
//   * Figure 9 self-time attribution via frame bookkeeping.
//
// All time is virtual: method bodies charge work through VmContext::work,
// scaled by the VM's CPU speed (client 1.0, surrogate 3.5 per the paper).
#pragma once

#include <array>
#include <bit>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/simclock.hpp"
#include "monitor/monitor.hpp"
#include "vm/heap.hpp"
#include "vm/hooks.hpp"
#include "vm/klass.hpp"
#include "vm/object.hpp"
#include "vm/redo_log.hpp"
#include "vm/remote.hpp"
#include "vm/value.hpp"

namespace aide::vm {

struct VmConfig {
  NodeId node{0};
  std::string name = "vm";
  // The client hosts static data and stateful native methods (paper 3.2).
  bool is_client = true;
  // Relative CPU speed; the paper measured the surrogate at 3.5x the client.
  double cpu_speed = 1.0;
  std::int64_t heap_capacity = std::int64_t{32} << 20;
  // GC triggers, mirroring Chai's: space limits, object count since last
  // collection, and bytes allocated since last collection (paper 5.1).
  std::int64_t gc_alloc_count_threshold = 4096;
  std::int64_t gc_alloc_bytes_divisor = 8;
  // Simulated cost of scanning one live object during GC.
  SimDuration gc_cost_per_live_object = sim_ns(40);
  // Enhancement (paper 5.2): stateless natives execute where invoked.
  bool stateless_natives_local = false;
};

// Frames nested deeper than this raise stack_overflow.
inline constexpr std::size_t kMaxStackDepth = 512;

struct VmStats {
  std::uint64_t allocations = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t gc_cycles = 0;
  std::uint64_t invocations = 0;          // instrumented invocation events
  std::uint64_t remote_invocations = 0;   // forwarded to the peer
  std::uint64_t field_accesses = 0;
  std::uint64_t remote_field_accesses = 0;
  std::uint64_t low_memory_rescues = 0;   // allocations saved by the handler
};

class Vm {
 public:
  Vm(VmConfig cfg, std::shared_ptr<const ClassRegistry> registry,
     SimClock& clock);

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // --- wiring -------------------------------------------------------------

  // An execution monitor fills the VM's one monitor slot: it hears every
  // event first, through direct calls the inline paths make themselves. A
  // second monitor, like any other hook, becomes an observer of the event
  // kinds in `events`, called after the slot in registration order.
  void add_hooks(monitor::ExecutionMonitor* monitor);
  void add_hooks(VmHooks* hooks, EventMask events = kAllEvents);
  // Empties the slot if `hooks` fills it, and drops every subscription.
  void remove_hooks(VmHooks* hooks);
  [[nodiscard]] monitor::ExecutionMonitor* monitor_slot() const noexcept {
    return monitor_;
  }
  void set_peer(RemotePeer* peer) noexcept { peer_ = peer; }
  // Called when an allocation cannot be satisfied even after GC; returns
  // true if memory was freed (e.g. the platform offloaded components).
  void set_low_memory_handler(std::function<bool(Vm&)> handler) {
    low_memory_handler_ = std::move(handler);
  }
  // Additional GC roots owned by the rpc layer (exported objects).
  void set_extra_roots_provider(
      std::function<void(const std::function<void(ObjectId)>&)> provider) {
    extra_roots_provider_ = std::move(provider);
  }
  // Invoked with the ids of unreachable remote stubs after each GC; the rpc
  // layer forwards them as distributed-GC release messages.
  void set_stub_release_handler(
      std::function<void(std::span<const ObjectId>)> handler) {
    stub_release_handler_ = std::move(handler);
  }

  // --- introspection --------------------------------------------------------

  [[nodiscard]] NodeId node() const noexcept { return cfg_.node; }
  [[nodiscard]] const std::string& name() const noexcept { return cfg_.name; }
  [[nodiscard]] bool is_client() const noexcept { return cfg_.is_client; }
  [[nodiscard]] double cpu_speed() const noexcept { return cfg_.cpu_speed; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] Heap& heap() noexcept { return heap_; }
  [[nodiscard]] const Heap& heap() const noexcept { return heap_; }
  [[nodiscard]] const ClassRegistry& registry() const noexcept {
    return *registry_;
  }
  [[nodiscard]] const VmStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const VmConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t stack_depth() const noexcept {
    return frame_depth_;
  }
  [[nodiscard]] std::size_t stub_count() const noexcept {
    return stubs_.size();
  }

  [[nodiscard]] ClassId find_class(std::string_view name) const {
    return registry_->find(name);
  }
  [[nodiscard]] const ClassDef& class_def(ClassId cls) const {
    return registry_->get(cls);
  }

  // --- object model (the VmContext API used by managed method bodies) -----

  ObjectRef new_object(ClassId cls);
  ObjectRef new_object(std::string_view class_name) {
    return new_object(registry_->find(class_name));
  }
  ObjectRef new_int_array(std::int64_t length);
  // A reference array: a plain object of class "Object[]" with `length`
  // value slots, accessed via get_field/put_field by index.
  ObjectRef new_ref_array(std::int64_t length);
  ObjectRef new_char_array(std::int64_t length);
  ObjectRef new_char_array(std::string_view initial);

  // Field and array access fast paths are inlined: a local object with no
  // access observer is the common case in every scenario's inner loop, and
  // costs one slab lookup, the value copy and, with a monitor in the slot,
  // the monitor's event-cache compare and edge bump. Everything else —
  // remote objects, access observers, journaling, string payloads
  // (footprint deltas), errors — drops to the out-of-line slow path, which
  // preserves the full event/stats behavior.
  Value get_field(ObjectRef obj, FieldId field) {
    if (Object* o = heap_.find(obj.id);
        o != nullptr && (observed_ & kAccessEvents) == 0 &&
        field.value() < o->fields.size()) [[likely]] {
      stats_.field_accesses += 1;
      const Value& v = o->fields[field.value()];
      if (monitor_ != nullptr) {
        monitor_->on_access(access_event(o->cls, obj.id, v.wire_size(),
                                         /*is_write=*/false, /*remote=*/false));
      }
      if (v.is_ref()) [[unlikely]] {
        root_in_frame(v);
      }
      return v;
    }
    return get_field_slow(obj, field);
  }
  Value get_field(ObjectRef obj, std::string_view field);
  void put_field(ObjectRef obj, FieldId field, const Value& v) {
    if (Object* o = heap_.find(obj.id);
        o != nullptr && (observed_ & kAccessEvents) == 0 &&
        !journal_recording() && redo_log_ == nullptr &&
        field.value() < o->fields.size()) [[likely]] {
      Value& slot = o->fields[field.value()];
      if (!v.is_str() && !slot.is_str()) [[likely]] {
        slot = v;
        stats_.field_accesses += 1;
        if (monitor_ != nullptr) {
          monitor_->on_access(access_event(o->cls, obj.id, v.wire_size(),
                                           /*is_write=*/true,
                                           /*remote=*/false));
        }
        return;
      }
    }
    put_field_slow(obj, field, v);
  }
  void put_field(ObjectRef obj, std::string_view field, const Value& v);

  Value invoke(ObjectRef obj, MethodId method, std::span<const Value> args);
  Value call(ObjectRef obj, std::string_view method,
             std::initializer_list<Value> args = {});
  Value invoke_static(ClassId cls, MethodId method,
                      std::span<const Value> args);
  Value call_static(std::string_view cls, std::string_view method,
                    std::initializer_list<Value> args = {});

  // Cached call sites: the name is resolved to a MethodId once per
  // class/registry-epoch pair and the result is stored in the site itself,
  // so hot loops skip the name lookup entirely. A resolved managed instance
  // method on a local receiver with no invoke or frame observer dispatches
  // straight to the method body (monomorphic inline cache hit), reporting
  // to the monitor slot directly; anything else — cache miss, native/static
  // target, remote receiver, an observer — goes through the generic
  // dispatch path.
  Value call(ObjectRef obj, const CallSite& site,
             std::initializer_list<Value> args = {}) {
    const std::span<const Value> a(args.begin(), args.size());
    if (Object* o = heap_.find(obj.id);
        o != nullptr && site.epoch_ == registry_->epoch() &&
        site.cls_ == o->cls && site.fast_ok_ &&
        (observed_ & (kInvokeEvents | kFrameEvents)) == 0) [[likely]] {
      return call_fast(obj, site.cls_, site.mid_, *site.mdef_, a);
    }
    return call_site_slow(obj, site, a);
  }
  Value call_static(const StaticCallSite& site,
                    std::initializer_list<Value> args = {});

  Value get_static(ClassId cls, std::uint32_t slot);
  Value get_static(std::string_view cls, std::string_view slot);
  void put_static(ClassId cls, std::uint32_t slot, const Value& v);
  void put_static(std::string_view cls, std::string_view slot, const Value& v);

  Value array_get(ObjectRef arr, std::int64_t index) {
    if (const Object* o = heap_.find(arr.id);
        o != nullptr && (observed_ & kAccessEvents) == 0 && index >= 0 &&
        index < o->array_length()) [[likely]] {
      const std::int64_t element =
          o->kind == ObjectKind::int_array
              ? o->ints[index]
              : static_cast<std::int64_t>(
                    static_cast<unsigned char>(o->chars[index]));
      stats_.field_accesses += 1;
      if (monitor_ != nullptr) {
        monitor_->on_access(access_event(o->cls, arr.id,
                                         Value::kScalarWireSize,
                                         /*is_write=*/false, /*remote=*/false));
      }
      return Value{element};
    }
    return array_get_slow(arr, index);
  }
  void array_put(ObjectRef arr, std::int64_t index, const Value& v) {
    if (Object* o = heap_.find(arr.id);
        o != nullptr && (observed_ & kAccessEvents) == 0 &&
        !journal_recording() && redo_log_ == nullptr && index >= 0 &&
        index < o->array_length()) [[likely]] {
      const std::int64_t x = v.as_int();
      if (o->kind == ObjectKind::int_array) {
        o->ints[index] = x;
      } else {
        o->chars[index] = static_cast<char>(x);
      }
      stats_.field_accesses += 1;
      if (monitor_ != nullptr) {
        monitor_->on_access(access_event(o->cls, arr.id, v.wire_size(),
                                         /*is_write=*/true, /*remote=*/false));
      }
      return;
    }
    array_put_slow(arr, index, v);
  }
  std::int64_t array_length(ObjectRef arr);
  // Bulk character transfer: one interaction of `length` bytes.
  std::string chars_read(ObjectRef arr, std::int64_t offset,
                         std::int64_t length);
  void chars_write(ObjectRef arr, std::int64_t offset, std::string_view data);

  // Charges CPU work (virtual nanoseconds at speed 1.0) to the current frame.
  void work(SimDuration d) {
    if (d <= 0) return;  // advance() ignores non-positive deltas anyway
    clock_.advance(
        static_cast<SimDuration>(static_cast<double>(d) / cfg_.cpu_speed));
  }

  // External roots held by the embedding application driver.
  void add_root(ObjectRef obj);
  void remove_root(ObjectRef obj);
  // References returned to driver-level code (no active frame) are rooted
  // automatically so C++ locals can never dangle across a GC; the driver
  // releases them in bulk when its scenario finishes.
  void clear_driver_roots() { driver_roots_.clear(); }

  // Forces a GC cycle now (also runs automatically per the thresholds).
  GcReport collect_garbage();

  // --- mutation journal (fault tolerance) ----------------------------------
  //
  // While a journal scope is open, raw mutations (fields, statics, array
  // elements, char regions) record undo entries so a partially-executed
  // remote frame can be rolled back when the peer becomes unavailable
  // mid-call. Scopes nest; entries are kept until the outermost scope
  // commits so an enclosing rollback can still undo inner effects.
  // Recording is off by default — the platform enables it only when a fault
  // plan is active, so fault-free runs are bit-identical to the unjournaled
  // VM.

  void set_journal_enabled(bool on) noexcept { journal_enabled_ = on; }
  // Opens a scope; returns the mark to pass to journal_rollback.
  std::size_t journal_begin() noexcept;
  // Closes the current scope keeping its effects.
  void journal_commit() noexcept;
  // Undoes every mutation recorded since `mark` (newest first) and closes
  // the current scope. Objects that left the heap in the meantime are
  // skipped.
  void journal_rollback(std::size_t mark);

  // --- disconnected-operation redo log -------------------------------------
  //
  // While the platform is in Disconnected mode it installs a DisconnectLog
  // here; every raw mutation of a watched object (a hoarded replica of
  // surrogate-owned state) is then also recorded as a redo entry for replay
  // at reconcile time. Unlike the undo journal this captures *new* values,
  // and it records during journal rollback too — an undone mutation's
  // restored value is the correct final state to replay. nullptr (the
  // default) disables capture entirely and keeps the inline fast paths.

  void set_redo_log(DisconnectLog* log) noexcept { redo_log_ = log; }
  [[nodiscard]] DisconnectLog* redo_log() const noexcept { return redo_log_; }

  // --- location / migration (used by the rpc layer and offload engine) ----

  [[nodiscard]] bool is_local(ObjectId id) const noexcept {
    return heap_.contains(id);
  }
  [[nodiscard]] bool knows(ObjectId id) const noexcept {
    return heap_.contains(id) || stubs_.contains(id);
  }
  [[nodiscard]] ClassId class_of(ObjectId id) const;
  [[nodiscard]] Object* find_object(ObjectId id) noexcept {
    return heap_.find(id);
  }

  // Extracts a local object for migration, leaving a remote stub behind.
  std::unique_ptr<Object> migrate_out(ObjectId id);
  // Adopts a migrated object; replaces any stub for it.
  void migrate_in(std::unique_ptr<Object> obj);
  // Makes room for `bytes` more heap: a GC, then the low-memory handler, if
  // they are needed; throws out_of_memory when even that is not enough.
  // Lets a migration batch claim its whole footprint before adopting any of
  // it.
  void reserve(std::int64_t bytes);
  // Registers a stub for a remote object this VM just learned about.
  void install_stub(ObjectId id, ClassId cls, ObjectKind kind);

  // --- incoming remote operations (called by the rpc endpoint) ------------

  Value run_incoming_invoke(ObjectId target, MethodId method,
                            std::span<const Value> args);
  Value run_incoming_invoke_static(ClassId cls, MethodId method,
                                   std::span<const Value> args);
  Value raw_get_field(ObjectId target, FieldId field);
  void raw_put_field(ObjectId target, FieldId field, const Value& v);
  Value raw_get_static(ClassId cls, std::uint32_t slot);
  void raw_put_static(ClassId cls, std::uint32_t slot, const Value& v);
  Value raw_array_get(ObjectId target, std::int64_t index);
  void raw_array_put(ObjectId target, std::int64_t index, const Value& v);
  std::int64_t raw_array_length(ObjectId target);
  std::string raw_chars_read(ObjectId target, std::int64_t offset,
                             std::int64_t length);
  void raw_chars_write(ObjectId target, std::int64_t offset,
                       std::string_view data);

 private:
  struct Frame {
    ClassId cls;
    ObjectId self;
    MethodId method;
    SimTime start = 0;
    SimDuration child_time = 0;
    // JNI-style local references: every ref obtained through the context API
    // is rooted here so GC cannot reclaim objects held only in C++ locals.
    std::vector<ObjectId> local_roots;
  };

  struct StubInfo {
    ClassId cls;
    ObjectKind kind = ObjectKind::plain;
    bool gc_mark = false;
  };

  struct JournalEntry {
    enum class Kind : std::uint8_t { field, static_slot, array_elem, chars };
    Kind kind;
    ObjectId obj;           // field / array_elem / chars
    std::uint64_t key = 0;  // field index, static key, array index or offset
    Value old_value;        // field / static_slot
    std::int64_t old_elem = 0;  // array_elem
    std::string old_chars;      // chars
  };

  [[nodiscard]] bool journal_recording() const noexcept {
    return journal_depth_ > 0 && !journal_replaying_;
  }

  ObjectId next_object_id() noexcept {
    return ObjectId{(static_cast<std::uint64_t>(cfg_.node.value()) << 48) |
                    next_object_counter_++};
  }

  ObjectRef allocate(ClassId cls, ObjectKind kind, std::int64_t ints_len,
                     std::int64_t chars_len, std::string_view chars_init);
  void maybe_gc_after_alloc(std::int64_t bytes);

  // What the caller already knows about the target's placement: callers that
  // just resolved the receiver through the local heap pass `local` so the
  // placement rules skip a second heap probe.
  enum class Locality : std::uint8_t { unknown, local };

  Value execute_local(ObjectRef self, ClassId cls, MethodId mid,
                      const MethodDef& m, std::span<const Value> args);
  Value dispatch_invoke(ObjectRef target, ClassId cls, MethodId mid,
                        std::span<const Value> args, bool is_static,
                        Locality locality = Locality::unknown);

  // Lean dispatch for a cache-hit CallSite: the receiver is local, the
  // method is a managed instance method with a body (fast_ok_), and no
  // invoke or frame observer is subscribed — so only the monitor slot can
  // hear the call, and it gets the same frame-exit and invoke events
  // dispatch_invoke would deliver, by direct call. GC-visible state (frame
  // identity, local roots) and virtual time (work) are maintained exactly as
  // execute_local does.
  Value call_fast(ObjectRef self, ClassId cls, MethodId mid,
                  const MethodDef& m, std::span<const Value> args) {
    if (frame_depth_ >= kMaxStackDepth) [[unlikely]] {
      throw VmError(VmErrorCode::stack_overflow, registry_->get(cls).name);
    }
    if (frame_depth_ == frames_.size()) [[unlikely]] frames_.emplace_back();
    const std::size_t frame_ix = frame_depth_++;
    Frame& f = frames_[frame_ix];
    const SimTime t0 = clock_.now();
    f.cls = cls;
    f.self = self.id;
    f.method = mid;
    f.start = t0;
    f.child_time = 0;
    f.local_roots.clear();
    f.local_roots.push_back(self.id);
    for (const Value& a : args) {
      if (a.is_ref() && !a.as_ref().is_null()) [[unlikely]] {
        f.local_roots.push_back(a.as_ref().id);
      }
    }
    work(m.base_cost);
    Value ret;
    try {
      ret = m.body(*this, self, args);
    } catch (...) {
      const SimDuration total = clock_.now() - frames_[frame_ix].start;
      --frame_depth_;
      if (frame_depth_ > 0) frames_[frame_depth_ - 1].child_time += total;
      throw;
    }
    const SimDuration total = clock_.now() - t0;
    if (monitor_ != nullptr) {
      monitor_->on_method_exit(cfg_.node, cls, self.id, mid,
                               total - frames_[frame_ix].child_time,
                               clock_.now());
    }
    --frame_depth_;
    if (frame_depth_ > 0) frames_[frame_depth_ - 1].child_time += total;
    if (ret.is_ref()) [[unlikely]] root_in_frame(ret);
    stats_.invocations += 1;
    if (monitor_ != nullptr) {
      monitor_->on_invoke(invoke_event(cls, self.id, mid, m,
                                       /*is_static=*/false, /*remote=*/false,
                                       args_wire_size(args) + ret.wire_size(),
                                       t0));
    }
    return ret;
  }
  Value call_site_slow(ObjectRef obj, const CallSite& site,
                       std::span<const Value> args);
  Value get_field_slow(ObjectRef obj, FieldId field);
  void put_field_slow(ObjectRef obj, FieldId field, const Value& v);
  Value array_get_slow(ObjectRef arr, std::int64_t index);
  void array_put_slow(ObjectRef arr, std::int64_t index, const Value& v);
  void put_field_local(Object& o, FieldId field, const Value& v);

  void root_in_frame(const Value& v);
  void root_in_frame(ObjectRef r);

  [[nodiscard]] Object& require_local(ObjectId id);
  [[nodiscard]] const MethodDef& method_def(ClassId cls, MethodId m) const;

  // Current caller identity for interaction events.
  [[nodiscard]] ClassId current_cls() const noexcept {
    return frame_depth_ == 0 ? ClassId::invalid()
                             : frames_[frame_depth_ - 1].cls;
  }
  [[nodiscard]] ObjectId current_obj() const noexcept {
    return frame_depth_ == 0 ? ObjectId::invalid()
                             : frames_[frame_depth_ - 1].self;
  }

  // The one place interaction events are assembled: the inline paths hand
  // these to the monitor slot directly, and the slow paths deliver the same
  // events through emit().
  [[nodiscard]] AccessEvent access_event(ClassId to_cls, ObjectId to_obj,
                                         std::uint64_t bytes, bool is_write,
                                         bool remote) const noexcept {
    AccessEvent ev;
    ev.vm = cfg_.node;
    ev.from_cls = current_cls().valid() ? current_cls() : to_cls;
    ev.from_obj = current_obj();
    ev.to_cls = to_cls;
    ev.to_obj = to_obj;
    ev.is_write = is_write;
    ev.is_static = !to_obj.valid();  // a static slot has no target object
    ev.remote = remote;
    ev.bytes = bytes;
    ev.t = clock_.now();
    return ev;
  }
  [[nodiscard]] InvokeEvent invoke_event(ClassId cls, ObjectId callee,
                                         MethodId mid, const MethodDef& m,
                                         bool is_static, bool remote,
                                         std::uint64_t bytes,
                                         SimTime t) const noexcept {
    InvokeEvent ev;
    ev.vm = cfg_.node;
    ev.caller_cls = current_cls().valid() ? current_cls() : cls;
    ev.caller_obj = current_obj();
    ev.callee_cls = cls;
    ev.callee_obj = is_static ? ObjectId::invalid() : callee;
    ev.method = mid;
    ev.is_native = (m.kind == MethodKind::native);
    ev.is_static = is_static;
    ev.is_stateless = m.stateless;
    ev.remote = remote;
    ev.bytes = bytes;
    ev.t = t;
    return ev;
  }

  // Whether anyone hears events of `kind`: the slot hears every kind.
  [[nodiscard]] bool watched(EventMask kind) const noexcept {
    return monitor_ != nullptr || (observed_ & kind) != 0;
  }
  // Delivers one event of `kind` to the monitor slot, then to the kind's
  // observers in registration order.
  template <typename Fn>
  void emit(EventMask kind, Fn&& fn) {
    if (monitor_ != nullptr) fn(*monitor_);
    if ((observed_ & kind) != 0) {
      for (VmHooks* h : observers_[std::countr_zero(kind)]) fn(*h);
    }
  }
  // The slow paths' access event, assembled only when someone listens.
  void note_access(ClassId to_cls, ObjectId to_obj, std::uint64_t bytes,
                   bool is_write, bool remote) {
    if (!watched(kAccessEvents)) return;
    const AccessEvent ev = access_event(to_cls, to_obj, bytes, is_write, remote);
    emit(kAccessEvents, [&](auto& h) { h.on_access(ev); });
  }

  void mark_value(const Value& v, std::vector<ObjectId>& worklist) const;

  VmConfig cfg_;
  std::shared_ptr<const ClassRegistry> registry_;
  SimClock& clock_;
  Heap heap_;

  // The monitor slot, then the observers of each event kind (indexed by the
  // kind's bit) and the set of kinds that have any.
  monitor::ExecutionMonitor* monitor_ = nullptr;
  std::array<std::vector<VmHooks*>, kEventKinds> observers_;
  EventMask observed_ = 0;
  RemotePeer* peer_ = nullptr;
  std::function<bool(Vm&)> low_memory_handler_;
  std::function<void(const std::function<void(ObjectId)>&)>
      extra_roots_provider_;
  std::function<void(std::span<const ObjectId>)> stub_release_handler_;

  // Frame pool: frames_[0, frame_depth_) are active. Retired frames keep
  // their local_roots capacity, so steady-state invocation allocates nothing.
  std::vector<Frame> frames_;
  std::size_t frame_depth_ = 0;
  std::unordered_map<ObjectId, StubInfo> stubs_;
  std::unordered_map<ObjectId, int> external_roots_;
  std::vector<ObjectId> driver_roots_;
  // Static slot storage, flat-indexed by ClassDef::static_base + slot;
  // populated only on the client VM.
  std::vector<Value> statics_;

  std::vector<JournalEntry> journal_;
  int journal_depth_ = 0;
  bool journal_enabled_ = false;
  bool journal_replaying_ = false;
  DisconnectLog* redo_log_ = nullptr;

  std::uint64_t next_object_counter_ = 1;
  std::int64_t allocs_since_gc_ = 0;
  std::int64_t alloc_bytes_since_gc_ = 0;
  std::uint32_t gc_cycle_ = 0;
  bool in_gc_ = false;

  VmStats stats_;

  // Index into the flat statics table (and the journal's static key).
  [[nodiscard]] std::uint64_t static_index(ClassId cls,
                                           std::uint32_t slot) const {
    return static_cast<std::uint64_t>(registry_->get(cls).static_base) + slot;
  }
};

}  // namespace aide::vm
