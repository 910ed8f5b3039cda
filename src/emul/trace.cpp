#include "emul/trace.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "common/rng.hpp"

namespace aide::emul {

namespace {

// The summary key of an invoke, access or method_exit (SummaryEntry).
HotEvent summary_key(const HotEvent& e) {
  HotEvent key;
  key.type = e.type;
  key.cls_a = e.cls_a;
  key.bytes = e.bytes;
  if (e.type == TraceEventType::invoke) {
    key.flags = static_cast<std::uint8_t>(
        e.flags & (kFlagNative | kFlagStatic | kFlagStateless));
    key.cls_b = e.cls_b;
  } else if (e.type == TraceEventType::access) {
    key.flags = static_cast<std::uint8_t>(e.flags & kFlagStatic);
    key.cls_b = e.cls_b;
  }
  return key;
}

std::uint64_t hash_key(const HotEvent& key) {
  std::uint64_t state =
      ((std::uint64_t{key.cls_a.value()} << 32) | key.cls_b.value()) ^
      static_cast<std::uint64_t>(key.bytes);
  state += (static_cast<std::uint64_t>(key.type) << 8) | key.flags;
  return splitmix64(state);
}

}  // namespace

void TraceEvents::push_back(const TraceEvent& e) {
  hot_.push_back({e.type, e.flags, e.method, e.cls_a, e.cls_b, e.bytes});
  objects_.push_back({e.obj_a, e.obj_b});
  times_.push_back(e.t);
  if (e.aux1 != 0 || e.aux2 != 0) {
    aux_.push_back({hot_.size() - 1, e.aux1, e.aux2});
  }
  switch (e.type) {
    case TraceEventType::alloc:
    case TraceEventType::free_obj:
    case TraceEventType::resize:
    case TraceEventType::gc:
      memory_events_.push_back(hot_.size() - 1);
      break;
    default:
      break;
  }
  if (hot_.size() % kBlockEvents == 0) seal_block();
}

void TraceEvents::seal_block() {
  // Open addressing over twice as many slots as the block has events, each
  // 0 (empty) or 1 + the entry's offset from the block's first entry.
  constexpr std::size_t kSlots = 2 * kBlockEvents;
  std::vector<std::uint32_t> slots(kSlots, 0);
  const std::size_t first = summaries_.size();
  for (std::size_t i = hot_.size() - kBlockEvents; i < hot_.size(); ++i) {
    const TraceEventType type = hot_[i].type;
    if (type != TraceEventType::invoke && type != TraceEventType::access &&
        type != TraceEventType::method_exit) {
      continue;
    }
    const HotEvent key = summary_key(hot_[i]);
    std::size_t s = hash_key(key) % kSlots;
    while (slots[s] != 0 && summaries_[first + slots[s] - 1].key != key) {
      s = (s + 1) % kSlots;
    }
    if (slots[s] == 0) {
      summaries_.push_back({key, 0});
      slots[s] = static_cast<std::uint32_t>(summaries_.size() - first);
    }
    ++summaries_[first + slots[s] - 1].count;
  }
  block_end_.push_back(summaries_.size());
}

void TraceEvents::clear() noexcept {
  hot_.clear();
  objects_.clear();
  times_.clear();
  aux_.clear();
  summaries_.clear();
  block_end_.clear();
  memory_events_.clear();
}

std::size_t TraceEvents::aux_at(std::size_t i) const {
  const auto it = std::partition_point(
      aux_.begin(), aux_.end(),
      [i](const AuxEntry& a) { return a.index < i; });
  return static_cast<std::size_t>(it - aux_.begin());
}

void Trace::save_csv(std::ostream& os) const {
  os << "type,flags,t,cls_a,cls_b,obj_a,obj_b,method,bytes,aux1,aux2\n";
  for (const auto& e : events) {
    os << static_cast<int>(e.type) << ',' << static_cast<int>(e.flags) << ','
       << e.t << ',' << e.cls_a.value() << ',' << e.cls_b.value() << ','
       << e.obj_a.value() << ',' << e.obj_b.value() << ','
       << e.method.value() << ',' << e.bytes << ',' << e.aux1 << ','
       << e.aux2 << '\n';
  }
}

Trace Trace::load_csv(std::istream& is) {
  Trace trace;
  std::string line;
  if (!std::getline(is, line)) return trace;  // header (or empty)
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    // A row is eleven comma-separated fields and nothing else. std::from_chars
    // reads each one whole: it skips no whitespace and takes no '+', and it
    // takes a '-' only into a signed member (t, bytes, aux1, aux2), so every
    // field starts with a digit or, there, with one '-'. A value wider than
    // its event member is rejected, never truncated or wrapped.
    const char* p = line.data();
    const char* const end = p + line.size();
    int fields = 0;
    const auto read = [&](auto& out) {
      constexpr int kFields = 11;
      const auto [next, ec] = std::from_chars(p, end, out);
      const bool last = ++fields == kFields;
      const bool ended = last ? next == end : next != end && *next == ',';
      if (ec != std::errc{} || !ended) {
        throw std::runtime_error("trace csv: bad field");
      }
      p = last ? next : next + 1;
    };
    TraceEvent e;
    std::uint8_t type = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    read(type);
    if (type > static_cast<std::uint8_t>(TraceEventType::gc)) {
      throw std::runtime_error("trace csv: bad field");
    }
    e.type = static_cast<TraceEventType>(type);
    read(e.flags);
    read(e.t);
    read(u32);
    e.cls_a = ClassId{u32};
    read(u32);
    e.cls_b = ClassId{u32};
    read(u64);
    e.obj_a = ObjectId{u64};
    read(u64);
    e.obj_b = ObjectId{u64};
    read(u32);
    e.method = MethodId{u32};
    read(e.bytes);
    read(e.aux1);
    read(e.aux2);
    trace.events.push_back(e);
  }
  return trace;
}

}  // namespace aide::emul
