// Execution traces (paper section 4).
//
// "The emulator executes the same three modules that are used in the
// prototype. The Chai VM is replaced with a wrapper that is used to play back
// execution and resource traces into the modules."
//
// A Trace is the flat event stream extracted from a prototype run on a single
// VM: allocations, frees, method invocations and exits (with Figure 9
// self-times), data accesses, and GC cycle reports, with a stable CSV
// round-trip for archival and tests.
//
// The events are stored as columns (TraceEvents), so a replay streams only
// what each event needs: a 24-byte hot record for every event, the object
// ids and the time where they are read, and the aux pair of the few events
// that carry one (resizes and GC reports) from a sparse list. TraceEvent is
// the one value type the recorder, the CSV code and tests read and append.
//
// The store also pre-aggregates the trace in blocks of kBlockEvents events,
// for a replay that no longer feeds the monitor (emulator.hpp). Each time
// push_back completes a block it seals the block's summary: every distinct
// key of its invocations, accesses and frame exits with how many events
// carry it, the key being exactly what a class-granularity replay reads of
// such an event once placement is fixed. Beside the summaries, one
// ascending list holds the position of every allocation, free, resize and
// GC report, the events whose effect depends on their order. The events
// after the last whole block are in no summary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <span>
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

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

// The fields a class-granularity replay reads for every event.
struct HotEvent {
  TraceEventType type{};
  std::uint8_t flags = 0;
  MethodId method;
  ClassId cls_a;
  ClassId cls_b;
  std::int64_t bytes = 0;

  friend bool operator==(const HotEvent&, const HotEvent&) = default;
};
static_assert(sizeof(HotEvent) == 24);

// Events per summarised block.
inline constexpr std::size_t kBlockEvents = 4096;

// One key of a block summary and the number of the block's events that
// carry it. The key is a HotEvent holding the type (invoke, access or
// method_exit), the routing flags (native, static and stateless for an
// invoke; static for an access; none for an exit), cls_a, cls_b (0 for an
// exit) and bytes; its method is 0.
struct SummaryEntry {
  HotEvent key;
  std::uint64_t count = 0;

  friend bool operator==(const SummaryEntry&, const SummaryEntry&) = default;
};

struct EventObjects {
  ObjectId a;
  ObjectId b;
};

// The aux pair of one event whose aux1 or aux2 is non-zero.
struct AuxEntry {
  std::size_t index = 0;  // the event's position in the trace
  std::int64_t aux1 = 0;
  std::int64_t aux2 = 0;
};

// A column store of TraceEvents with a value view: indexing and iteration
// assemble a TraceEvent from the columns. Events whose aux1 and aux2 are both
// zero store no aux entry, so a trace costs 48 bytes per event plus 24 per
// aux-carrying event, 8 per allocation, free, resize or GC report, and 32
// per summary entry (a paper-size trace has 9 to 150 per block).
class TraceEvents {
 public:
  // Yields TraceEvents by value. It carries its position in the aux list, so
  // a sequential walk costs O(1) per event; `it + n` binary-searches it.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using reference = TraceEvent;

    // `it->field` on the event the iterator yields.
    struct pointer {
      TraceEvent event;
      const TraceEvent* operator->() const noexcept { return &event; }
    };

    const_iterator() = default;

    [[nodiscard]] TraceEvent operator*() const {
      return events_->assemble(index_, aux_);
    }
    [[nodiscard]] pointer operator->() const { return {**this}; }

    const_iterator& operator++() noexcept {
      if (aux_ < events_->aux_.size() && events_->aux_[aux_].index == index_) {
        ++aux_;
      }
      ++index_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    [[nodiscard]] const_iterator operator+(difference_type n) const {
      return {events_, index_ + static_cast<std::size_t>(n)};
    }

    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.index_ == b.index_;
    }

   private:
    friend class TraceEvents;
    const_iterator(const TraceEvents* events, std::size_t index)
        : events_(events), index_(index), aux_(events->aux_at(index)) {}

    const TraceEvents* events_ = nullptr;
    std::size_t index_ = 0;
    std::size_t aux_ = 0;  // first aux entry at or after index_
  };

  void push_back(const TraceEvent& e);
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return hot_.size(); }
  [[nodiscard]] bool empty() const noexcept { return hot_.empty(); }
  [[nodiscard]] TraceEvent operator[](std::size_t i) const {
    return assemble(i, aux_at(i));
  }
  [[nodiscard]] TraceEvent back() const { return (*this)[size() - 1]; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  // The columns, one entry per event except aux(), which holds only the
  // aux-carrying events in ascending index order.
  [[nodiscard]] const std::vector<HotEvent>& hot() const noexcept {
    return hot_;
  }
  [[nodiscard]] const std::vector<EventObjects>& objects() const noexcept {
    return objects_;
  }
  [[nodiscard]] const std::vector<SimTime>& times() const noexcept {
    return times_;
  }
  [[nodiscard]] const std::vector<AuxEntry>& aux() const noexcept {
    return aux_;
  }

  // The sealed blocks: block k holds events [k * kBlockEvents,
  // (k + 1) * kBlockEvents), and summary(k) is its entries, in the order of
  // each key's first event.
  [[nodiscard]] std::size_t blocks() const noexcept {
    return block_end_.size();
  }
  [[nodiscard]] std::span<const SummaryEntry> summary(std::size_t k) const {
    const std::size_t first = k == 0 ? 0 : block_end_[k - 1];
    return std::span(summaries_).subspan(first, block_end_[k] - first);
  }
  // Positions of every alloc, free_obj, resize and gc event, ascending.
  [[nodiscard]] const std::vector<std::size_t>& memory_events()
      const noexcept {
    return memory_events_;
  }

 private:
  // Position of the first aux entry at or after event i.
  [[nodiscard]] std::size_t aux_at(std::size_t i) const;
  // Event i, whose aux entry, if it has one, is aux_[aux].
  [[nodiscard]] TraceEvent assemble(std::size_t i, std::size_t aux) const;
  // Appends the summary of the last kBlockEvents events.
  void seal_block();

  std::vector<HotEvent> hot_;
  std::vector<EventObjects> objects_;
  std::vector<SimTime> times_;
  std::vector<AuxEntry> aux_;
  std::vector<SummaryEntry> summaries_;  // every block's, in block order
  std::vector<std::size_t> block_end_;   // end of block k's in summaries_
  std::vector<std::size_t> memory_events_;
};

inline TraceEvent TraceEvents::assemble(std::size_t i, std::size_t aux) const {
  const HotEvent& h = hot_[i];
  TraceEvent e;
  e.type = h.type;
  e.flags = h.flags;
  e.method = h.method;
  e.t = times_[i];
  e.cls_a = h.cls_a;
  e.cls_b = h.cls_b;
  e.obj_a = objects_[i].a;
  e.obj_b = objects_[i].b;
  e.bytes = h.bytes;
  if (aux < aux_.size() && aux_[aux].index == i) {
    e.aux1 = aux_[aux].aux1;
    e.aux2 = aux_[aux].aux2;
  }
  return e;
}
static_assert(std::forward_iterator<TraceEvents::const_iterator>);

struct Trace {
  TraceEvents events;

  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  // Duration of the recorded run (time of the last event).
  [[nodiscard]] SimDuration duration() const noexcept {
    return events.empty() ? 0 : events.times().back();
  }

  void save_csv(std::ostream& os) const;
  static Trace load_csv(std::istream& is);
};

}  // namespace aide::emul
