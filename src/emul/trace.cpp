#include "emul/trace.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace aide::emul {

void TraceEvents::push_back(const TraceEvent& e) {
  hot_.push_back({e.type, e.flags, e.method, e.cls_a, e.cls_b, e.bytes});
  objects_.push_back({e.obj_a, e.obj_b});
  times_.push_back(e.t);
  if (e.aux1 != 0 || e.aux2 != 0) {
    aux_.push_back({hot_.size() - 1, e.aux1, e.aux2});
  }
}

void TraceEvents::clear() noexcept {
  hot_.clear();
  objects_.clear();
  times_.clear();
  aux_.clear();
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
