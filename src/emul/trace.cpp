#include "emul/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

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
    std::istringstream ls(line);
    TraceEvent e;
    std::uint64_t v = 0;
    int fields = 0;
    // The first ten fields end at a ',' and the eleventh at the end of the
    // row: another separator or a twelfth field is malformed, never skipped.
    auto end_field = [&] {
      constexpr int kFields = 11;
      const bool ok = ++fields < kFields
                          ? ls.get() == ','
                          : ls.peek() == std::istringstream::traits_type::eof();
      if (!ok) throw std::runtime_error("trace csv: bad field");
    };
    auto read_u64 = [&](std::uint64_t& out) {
      if (!(ls >> out)) throw std::runtime_error("trace csv: bad field");
      end_field();
    };
    auto read_i64 = [&](std::int64_t& out) {
      if (!(ls >> out)) throw std::runtime_error("trace csv: bad field");
      end_field();
    };
    // A field wider than its event member is rejected, never truncated.
    auto read_bounded = [&](std::uint64_t max) {
      read_u64(v);
      if (v > max) throw std::runtime_error("trace csv: bad field");
      return v;
    };
    constexpr std::uint64_t kMaxU32 = 0xFFFFFFFFu;
    e.type = static_cast<TraceEventType>(
        read_bounded(static_cast<std::uint64_t>(TraceEventType::gc)));
    e.flags = static_cast<std::uint8_t>(read_bounded(0xFF));
    read_i64(e.t);
    e.cls_a = ClassId{static_cast<std::uint32_t>(read_bounded(kMaxU32))};
    e.cls_b = ClassId{static_cast<std::uint32_t>(read_bounded(kMaxU32))};
    read_u64(v);
    e.obj_a = ObjectId{v};
    read_u64(v);
    e.obj_b = ObjectId{v};
    e.method = MethodId{static_cast<std::uint32_t>(read_bounded(kMaxU32))};
    read_i64(e.bytes);
    read_i64(e.aux1);
    read_i64(e.aux2);
    trace.events.push_back(e);
  }
  return trace;
}

}  // namespace aide::emul
