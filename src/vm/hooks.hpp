// VM instrumentation hooks.
//
// The paper augments the JVM's code for "method invocations, data field
// accesses, object creation, and object deletion" (section 3.4). VmHooks is
// that augmentation surface. A VM delivers every instrumented event to the
// execution monitor in its one monitor slot first (a direct call, inlined on
// the field, array and call fast paths), then to the observers subscribed to
// that event's kind: the platform's link state machine, the trace recorder,
// tests and benchmark probes. The resource monitor is not a hook; the
// platform hands it the client's GC reports.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/ids.hpp"
#include "common/simclock.hpp"
#include "vm/heap.hpp"

namespace aide::vm {

// One method-invocation interaction, reported by the *calling* VM after the
// call returned. `bytes` covers parameters plus the return value.
//
// Event structs sit on the monitoring hot path (one per instrumented VM
// operation), so members are ordered widest-first to avoid alignment padding.
struct InvokeEvent {
  ObjectId caller_obj = ObjectId::invalid();
  ObjectId callee_obj = ObjectId::invalid();  // invalid for static methods
  std::uint64_t bytes = 0;
  SimTime t = 0;
  NodeId vm;
  ClassId caller_cls;
  ClassId callee_cls;
  MethodId method;
  bool is_native = false;
  bool is_static = false;
  bool is_stateless = false;
  bool remote = false;  // the call crossed to the other VM
};

// One data access (instance field, static slot, or array element).
struct AccessEvent {
  ObjectId from_obj = ObjectId::invalid();
  ObjectId to_obj = ObjectId::invalid();  // invalid for static slots
  std::uint64_t bytes = 0;
  SimTime t = 0;
  NodeId vm;
  ClassId from_cls;
  ClassId to_cls;
  bool is_write = false;
  bool is_static = false;
  bool remote = false;
};

// Event kinds, as a bit set. An observer subscribes to the kinds whose
// callbacks it overrides (Vm::add_hooks); an op whose kind has no observer
// stays on the VM's inline path.
using EventMask = std::uint8_t;
inline constexpr EventMask kInvokeEvents = 1u << 0;  // on_invoke
inline constexpr EventMask kAccessEvents = 1u << 1;  // on_access
inline constexpr EventMask kFrameEvents = 1u << 2;   // on_method_enter/exit
inline constexpr EventMask kHeapEvents = 1u << 3;    // on_alloc/resize/free
inline constexpr EventMask kGcEvents = 1u << 4;      // on_gc
inline constexpr EventMask kAllEvents = 0x1f;
inline constexpr std::size_t kEventKinds = 5;

class VmHooks {
 public:
  virtual ~VmHooks() = default;

  virtual void on_invoke(const InvokeEvent&) {}
  virtual void on_access(const AccessEvent&) {}

  // Frame lifecycle on the *executing* VM; `self_time` excludes nested calls
  // (the Figure 9 attribution is computed by the VM's frame bookkeeping).
  virtual void on_method_enter(NodeId /*vm*/, ClassId /*cls*/,
                               ObjectId /*obj*/, MethodId /*m*/,
                               SimTime /*t*/) {}
  virtual void on_method_exit(NodeId /*vm*/, ClassId /*cls*/, ObjectId /*obj*/,
                              MethodId /*m*/, SimDuration /*self_time*/,
                              SimTime /*t*/) {}

  virtual void on_alloc(NodeId /*vm*/, ObjectId /*obj*/, ClassId /*cls*/,
                        std::int64_t /*bytes*/, SimTime /*t*/) {}
  // An existing object's footprint changed in place (string field grew).
  virtual void on_resize(NodeId /*vm*/, ObjectId /*obj*/, ClassId /*cls*/,
                         std::int64_t /*delta_bytes*/) {}
  virtual void on_free(NodeId /*vm*/, ObjectId /*obj*/, ClassId /*cls*/,
                       std::int64_t /*bytes*/, SimTime /*t*/) {}

  virtual void on_gc(NodeId /*vm*/, const GcReport&) {}
};

}  // namespace aide::vm
