// Timing decorators installed at the program's public seams for the traced
// run. None of them changes what the program computes: each forwards every
// call unchanged and only opens and closes spans around it. The traced run
// checks that claim by comparing checksums, virtual time and transport
// counters against an untraced run of the same inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "monitor/monitor.hpp"
#include "platform/platform.hpp"
#include "spans.hpp"
#include "vm/hooks.hpp"
#include "vm/remote.hpp"
#include "vm/vm.hpp"

namespace perfbench {

// vm::RemotePeer decorator: every operation a VM forwards to its peer becomes
// an rpc span around the wrapped endpoint. Installed with Vm::set_peer after
// the endpoints are connected.
class TimingPeer final : public aide::vm::RemotePeer {
 public:
  TimingPeer(aide::vm::RemotePeer& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  aide::vm::Value invoke(aide::ObjectId target, aide::ClassId cls,
                         aide::MethodId method,
                         std::span<const aide::vm::Value> args) override {
    Span s(&rec_, Layer::rpc);
    return inner_.invoke(target, cls, method, args);
  }
  aide::vm::Value invoke_static(aide::ClassId cls, aide::MethodId method,
                                std::span<const aide::vm::Value> args) override {
    Span s(&rec_, Layer::rpc);
    return inner_.invoke_static(cls, method, args);
  }
  aide::vm::Value get_field(aide::ObjectId target, aide::FieldId field) override {
    Span s(&rec_, Layer::rpc);
    return inner_.get_field(target, field);
  }
  void put_field(aide::ObjectId target, aide::FieldId field,
                 const aide::vm::Value& v) override {
    Span s(&rec_, Layer::rpc);
    inner_.put_field(target, field, v);
  }
  aide::vm::Value get_static(aide::ClassId cls, std::uint32_t slot) override {
    Span s(&rec_, Layer::rpc);
    return inner_.get_static(cls, slot);
  }
  void put_static(aide::ClassId cls, std::uint32_t slot,
                  const aide::vm::Value& v) override {
    Span s(&rec_, Layer::rpc);
    inner_.put_static(cls, slot, v);
  }
  aide::vm::Value array_get(aide::ObjectId target, std::int64_t index) override {
    Span s(&rec_, Layer::rpc);
    return inner_.array_get(target, index);
  }
  void array_put(aide::ObjectId target, std::int64_t index,
                 const aide::vm::Value& v) override {
    Span s(&rec_, Layer::rpc);
    inner_.array_put(target, index, v);
  }
  std::int64_t array_length(aide::ObjectId target) override {
    Span s(&rec_, Layer::rpc);
    return inner_.array_length(target);
  }
  std::string chars_read(aide::ObjectId target, std::int64_t offset,
                         std::int64_t length) override {
    Span s(&rec_, Layer::rpc);
    return inner_.chars_read(target, offset, length);
  }
  void chars_write(aide::ObjectId target, std::int64_t offset,
                   std::string_view data) override {
    Span s(&rec_, Layer::rpc);
    inner_.chars_write(target, offset, data);
  }
  void release(std::span<const aide::ObjectId> ids) override {
    Span s(&rec_, Layer::rpc);
    inner_.release(ids);
  }
  void flush_pending() override {
    Span s(&rec_, Layer::rpc);
    inner_.flush_pending();
  }

 private:
  aide::vm::RemotePeer& inner_;
  SpanRecorder& rec_;
};

// Stands in for an ExecutionMonitor on a VM's hook list: every hook call is a
// monitor span around the wrapped monitor.
class TimedMonitor final : public aide::vm::VmHooks {
 public:
  TimedMonitor(aide::monitor::ExecutionMonitor& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  void on_invoke(const aide::vm::InvokeEvent& ev) override {
    Span s(&rec_, Layer::monitor);
    inner_.on_invoke(ev);
  }
  void on_access(const aide::vm::AccessEvent& ev) override {
    Span s(&rec_, Layer::monitor);
    inner_.on_access(ev);
  }
  void on_method_enter(aide::NodeId vm, aide::ClassId cls, aide::ObjectId obj,
                       aide::MethodId m, aide::SimTime t) override {
    Span s(&rec_, Layer::monitor);
    inner_.on_method_enter(vm, cls, obj, m, t);
  }
  void on_method_exit(aide::NodeId vm, aide::ClassId cls, aide::ObjectId obj,
                      aide::MethodId m, aide::SimDuration self_time,
                      aide::SimTime t) override {
    Span s(&rec_, Layer::monitor);
    inner_.on_method_exit(vm, cls, obj, m, self_time, t);
  }
  void on_alloc(aide::NodeId vm, aide::ObjectId obj, aide::ClassId cls,
                std::int64_t bytes, aide::SimTime t) override {
    Span s(&rec_, Layer::monitor);
    inner_.on_alloc(vm, obj, cls, bytes, t);
  }
  void on_resize(aide::NodeId vm, aide::ObjectId obj, aide::ClassId cls,
                 std::int64_t delta) override {
    Span s(&rec_, Layer::monitor);
    inner_.on_resize(vm, obj, cls, delta);
  }
  void on_free(aide::NodeId vm, aide::ObjectId obj, aide::ClassId cls,
               std::int64_t bytes, aide::SimTime t) override {
    Span s(&rec_, Layer::monitor);
    inner_.on_free(vm, obj, cls, bytes, t);
  }
  void on_gc(aide::NodeId vm, const aide::vm::GcReport& report) override {
    Span s(&rec_, Layer::monitor);
    inner_.on_gc(vm, report);
  }

 private:
  aide::monitor::ExecutionMonitor& inner_;
  SpanRecorder& rec_;
};

// Appended last to a VM's hooks: a method frame entered directly under an rpc
// span is the peer VM executing a forwarded call, and becomes a vm span that
// closes with the frame. Frames are matched by the VM's own stack depth, so
// a frame unwound by an exception (no exit event) is closed when its
// enclosing rpc span closes.
class FrameObserver final : public aide::vm::VmHooks {
 public:
  explicit FrameObserver(SpanRecorder& rec) : rec_(rec) {}

  void watch(aide::vm::Vm& vm) {
    vms_.push_back(&vm);
    vm.add_hooks(this);
  }
  void unwatch_all() {
    for (aide::vm::Vm* vm : vms_) vm->remove_hooks(this);
    vms_.clear();
    open_.clear();
  }

  void on_method_enter(aide::NodeId node, aide::ClassId, aide::ObjectId,
                       aide::MethodId, aide::SimTime) override {
    while (!open_.empty() && !rec_.is_open(open_.back().token)) {
      open_.pop_back();
    }
    if (rec_.empty() || rec_.top() != Layer::rpc) return;
    open_.push_back(Frame{node, depth_of(node), rec_.open(Layer::vm)});
  }
  void on_method_exit(aide::NodeId node, aide::ClassId, aide::ObjectId,
                      aide::MethodId, aide::SimDuration,
                      aide::SimTime) override {
    if (open_.empty()) return;
    const Frame& f = open_.back();
    if (f.node != node || f.depth != depth_of(node)) return;
    rec_.close(f.token);
    open_.pop_back();
  }

 private:
  struct Frame {
    aide::NodeId node;
    std::size_t depth;
    SpanRecorder::Token token;
  };

  [[nodiscard]] std::size_t depth_of(aide::NodeId node) const {
    for (const aide::vm::Vm* vm : vms_) {
      if (vm->node() == node) return vm->stack_depth();
    }
    return 0;
  }

  SpanRecorder& rec_;
  std::vector<aide::vm::Vm*> vms_;
  std::vector<Frame> open_;
};

// Offload accounting gathered by OffloadTrigger.
struct OffloadTally {
  std::uint64_t evaluations = 0;  // offload_now calls that ran the policy
  std::uint64_t accepted = 0;     // of those, calls that migrated
  std::int64_t offload_ns = 0;    // wall time inside offload_now
  double decide_s = 0.0;          // PartitionDecision::compute_seconds, plus
                                  // the whole call when it declined
  std::size_t mincut_nodes_max = 0;
};

// Drives offloading from outside the platform for the traced run, which
// builds the Platform with auto_offload = false. It reproduces
// Platform::on_gc's trigger path (appended after the platform hook, so it
// fires at the same point of the same GC report) and the low-memory rescue,
// and times every offload_now call as a platform.offload span. Its own
// re-entrancy guard stands in for the platform's private in-progress flag.
class OffloadTrigger final : public aide::vm::VmHooks {
 public:
  OffloadTrigger(aide::platform::Platform& p, SpanRecorder& rec);
  ~OffloadTrigger() override;
  OffloadTrigger(const OffloadTrigger&) = delete;
  OffloadTrigger& operator=(const OffloadTrigger&) = delete;

  void on_gc(aide::NodeId vm, const aide::vm::GcReport&) override;
  [[nodiscard]] const OffloadTally& tally() const noexcept { return tally_; }

 private:
  std::optional<aide::platform::OffloadReport> timed_offload(
      std::optional<std::int64_t> min_free_override);
  bool rescue();

  aide::platform::Platform& p_;
  SpanRecorder& rec_;
  OffloadTally tally_;
  bool busy_ = false;
};

}  // namespace perfbench
