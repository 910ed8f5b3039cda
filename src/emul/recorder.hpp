// Trace recorder.
//
// Attached as VM hooks during a prototype run ("the traces for an application
// were extracted from the prototype while running the application to
// completion on a single PC", paper section 4), the recorder captures every
// instrumented event into a Trace for later emulator playback. Each hook
// builds one TraceEvent and appends it to the trace's columns; resizes and
// GC reports carry no time of their own and take the last event's.
#pragma once

#include "emul/trace.hpp"
#include "vm/hooks.hpp"

namespace aide::emul {

class TraceRecorder : public vm::VmHooks {
 public:
  TraceRecorder() = default;

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  Trace take() noexcept { return std::move(trace_); }
  void clear() { trace_.events.clear(); }

  void on_invoke(const vm::InvokeEvent& ev) override {
    TraceEvent e;
    e.type = TraceEventType::invoke;
    e.t = ev.t;
    e.cls_a = ev.caller_cls;
    e.obj_a = ev.caller_obj;
    e.cls_b = ev.callee_cls;
    e.obj_b = ev.callee_obj;
    e.method = ev.method;
    e.bytes = static_cast<std::int64_t>(ev.bytes);
    if (ev.is_native) e.flags |= kFlagNative;
    if (ev.is_static) e.flags |= kFlagStatic;
    if (ev.is_stateless) e.flags |= kFlagStateless;
    trace_.events.push_back(e);
  }

  void on_access(const vm::AccessEvent& ev) override {
    TraceEvent e;
    e.type = TraceEventType::access;
    e.t = ev.t;
    e.cls_a = ev.from_cls;
    e.obj_a = ev.from_obj;
    e.cls_b = ev.to_cls;
    e.obj_b = ev.to_obj;
    e.bytes = static_cast<std::int64_t>(ev.bytes);
    if (ev.is_write) e.flags |= kFlagWrite;
    if (ev.is_static) e.flags |= kFlagStatic;
    trace_.events.push_back(e);
  }

  void on_method_enter(NodeId, ClassId cls, ObjectId obj, MethodId m,
                       SimTime t) override {
    TraceEvent e;
    e.type = TraceEventType::method_enter;
    e.t = t;
    e.cls_a = cls;
    e.obj_a = obj;
    e.method = m;
    trace_.events.push_back(e);
  }

  void on_method_exit(NodeId, ClassId cls, ObjectId obj, MethodId m,
                      SimDuration self_time, SimTime t) override {
    TraceEvent e;
    e.type = TraceEventType::method_exit;
    e.t = t;
    e.cls_a = cls;
    e.obj_a = obj;
    e.method = m;
    e.bytes = self_time;
    trace_.events.push_back(e);
  }

  void on_alloc(NodeId, ObjectId obj, ClassId cls, std::int64_t bytes,
                SimTime t) override {
    TraceEvent e;
    e.type = TraceEventType::alloc;
    e.t = t;
    e.cls_a = cls;
    e.obj_a = obj;
    e.bytes = bytes;
    trace_.events.push_back(e);
  }

  void on_resize(NodeId, ObjectId obj, ClassId cls,
                 std::int64_t delta) override {
    TraceEvent e;
    e.type = TraceEventType::resize;
    e.t = trace_.duration();
    e.cls_a = cls;
    e.obj_a = obj;
    e.aux1 = delta;
    trace_.events.push_back(e);
  }

  void on_free(NodeId, ObjectId obj, ClassId cls, std::int64_t bytes,
               SimTime t) override {
    TraceEvent e;
    e.type = TraceEventType::free_obj;
    e.t = t;
    e.cls_a = cls;
    e.obj_a = obj;
    e.bytes = bytes;
    trace_.events.push_back(e);
  }

  void on_gc(NodeId, const vm::GcReport& report) override {
    TraceEvent e;
    e.type = TraceEventType::gc;
    e.t = trace_.duration();
    e.bytes = report.used_after;
    e.aux1 = report.capacity;
    e.aux2 = report.freed;
    trace_.events.push_back(e);
  }

 private:
  Trace trace_;
};

}  // namespace aide::emul
