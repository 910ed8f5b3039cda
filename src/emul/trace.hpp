// Execution traces (paper section 4).
//
// "The emulator executes the same three modules that are used in the
// prototype. The Chai VM is replaced with a wrapper that is used to play back
// execution and resource traces into the modules."
//
// A Trace is the flat event stream extracted from a prototype run on a single
// VM: allocations, frees, method invocations and exits (with Figure 9
// self-times), data accesses, and GC cycle reports. Events are compact PODs
// with a stable CSV round-trip for archival and tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/simclock.hpp"

namespace aide::emul {

enum class TraceEventType : std::uint8_t {
  alloc = 0,
  free_obj = 1,
  resize = 2,
  invoke = 3,
  access = 4,
  method_enter = 5,
  method_exit = 6,
  gc = 7,
};

// Flag bits for invoke/access events.
inline constexpr std::uint8_t kFlagNative = 1;
inline constexpr std::uint8_t kFlagStatic = 2;
inline constexpr std::uint8_t kFlagStateless = 4;
inline constexpr std::uint8_t kFlagWrite = 8;

// One cache line: `method` fills the padding after `type`/`flags`, so a
// replay streams 64 bytes per event.
struct TraceEvent {
  TraceEventType type{};
  std::uint8_t flags = 0;
  MethodId method;
  SimTime t = 0;
  ClassId cls_a;   // alloc/free/resize/enter/exit: object class; invoke:
                   // caller class; access: source class
  ClassId cls_b;   // invoke: callee class; access: target class
  ObjectId obj_a;  // alloc/free/resize/enter/exit: the object; invoke: caller
                   // object; access: source object
  ObjectId obj_b;  // invoke: callee object; access: target object
  std::int64_t bytes = 0;  // alloc/free size, interaction bytes,
                           // method_exit self-time, gc used_after
  std::int64_t aux1 = 0;   // gc: capacity; resize: delta
  std::int64_t aux2 = 0;   // gc: freed
};
static_assert(sizeof(TraceEvent) == 64);

struct Trace {
  std::vector<TraceEvent> events;

  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  // Duration of the recorded run (time of the last event).
  [[nodiscard]] SimDuration duration() const noexcept {
    return events.empty() ? 0 : events.back().t;
  }

  void save_csv(std::ostream& os) const;
  static Trace load_csv(std::istream& is);
};

}  // namespace aide::emul
