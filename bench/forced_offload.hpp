// The forced-offload harness of the fault-path benches and tests: the five
// Table 1 apps at a reduced size, a platform configuration that lets a hook
// (not the memory trigger) decide when to offload, that hook, and the
// standalone checksum a run must reproduce.
//
// Pinning the offload instant this way lets a fault schedule be anchored to
// the migration's message boundaries, whatever the app's memory profile.
#pragma once

#include <cstdint>
#include <memory>

#include "apps/apps.hpp"
#include "platform/platform.hpp"
#include "vm/hooks.hpp"
#include "vm/vm.hpp"

namespace aide::bench {

// The five apps at a size a sweep can run dozens of times.
inline apps::AppParams small_app_params() {
  apps::AppParams p;
  p.doc_bytes = 48 * 1024;
  p.edits = 16;
  p.scrolls = 20;
  p.image_size = 64;
  p.layers = 3;
  p.filter_passes = 3;
  p.atoms = 80;
  p.iterations = 4;
  p.field_size = 49;
  p.frames = 4;
  p.columns = 32;
  p.trace_w = 16;
  p.trace_h = 12;
  p.spheres = 6;
  return p;
}

// Heaps as generous as a standalone run's, so recovery can always complete
// client-local; no trigger-driven offloads; and a client GC report every 4
// allocations, so ForcedOffload gets an early chance on every app (Voxel
// allocates under a dozen objects at this size).
inline platform::PlatformConfig forced_offload_config() {
  platform::PlatformConfig cfg;
  cfg.client_heap = 64 << 20;
  cfg.surrogate_heap = 64 << 20;
  cfg.auto_offload = false;
  cfg.client_gc_alloc_count_threshold = 4;
  cfg.client_gc_alloc_bytes_divisor = 512;
  return cfg;
}

// The checksum every forced-offload run must reproduce: the same app on one
// VM with a heap as generous as the platform's.
inline std::uint64_t standalone_checksum(const apps::AppInfo& app,
                                         const apps::AppParams& params) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  SimClock clock;
  vm::VmConfig cfg;
  cfg.heap_capacity = 64 << 20;
  vm::Vm vm(cfg, reg, clock);
  return app.run(vm, params);
}

// From the second client GC on, asks for any beneficial offload until one
// lands or the surrogate is gone.
class ForcedOffload : public vm::VmHooks {
 public:
  explicit ForcedOffload(platform::Platform& p) : p_(p) {}
  void on_gc(NodeId node, const vm::GcReport&) override {
    if (node != p_.client().node()) return;
    if (++cycles_ < 2) return;
    if (p_.offloaded() || p_.surrogate_dead()) return;
    p_.offload_now(std::int64_t{1});
  }

 private:
  platform::Platform& p_;
  int cycles_ = 0;
};

}  // namespace aide::bench
