// Managed values.
//
// The MiniVM is dynamically typed at the slot level (like JVM locals): a
// Value holds nil, a boolean, a 64-bit integer, a double, an object
// reference, or an immutable short string. wire_size() gives the number of
// bytes the value occupies when crossing the simulated link; the monitoring
// module charges interaction edges with exactly these sizes (paper 3.4: "the
// amount of information exchanged between two classes as represented by the
// parameters and return values").
#pragma once

#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/ids.hpp"

namespace aide::vm {

// A reference into the VM's object namespace.
struct ObjectRef {
  ObjectId id = ObjectId::invalid();

  [[nodiscard]] bool is_null() const noexcept { return !id.valid(); }
  friend bool operator==(ObjectRef, ObjectRef) noexcept = default;
};

inline constexpr ObjectRef kNullRef{};

// Implemented as a hand-rolled tagged union rather than std::variant: the
// five non-string kinds share one 8-byte payload that copies with a plain
// store, so the copy/move/assign/destroy of the overwhelmingly common cases
// (ints, refs, nil) never reaches the variant-style alternative dispatch or
// the string machinery. Only the string kind pays for string lifetime.
class Value {
 public:
  Value() noexcept {}
  Value(bool b) noexcept : kind_(Kind::boolean) { b_ = b; }       // NOLINT(google-explicit-constructor)
  Value(std::int64_t i) noexcept : kind_(Kind::integer) { i_ = i; }  // NOLINT(google-explicit-constructor)
  Value(int i) noexcept : kind_(Kind::integer) { i_ = i; }        // NOLINT(google-explicit-constructor)
  Value(double d) noexcept : kind_(Kind::real) { d_ = d; }        // NOLINT(google-explicit-constructor)
  Value(ObjectRef r) noexcept : kind_(Kind::ref) { r_ = r; }      // NOLINT(google-explicit-constructor)
  Value(std::string s) : kind_(Kind::str) {                       // NOLINT(google-explicit-constructor)
    new (&s_) std::string(std::move(s));
  }
  Value(const char* s) : Value(std::string(s)) {}                 // NOLINT(google-explicit-constructor)

  Value(const Value& o) { copy_from(o); }
  Value(Value&& o) noexcept { move_from(std::move(o)); }
  Value& operator=(const Value& o) {
    if (this != &o) {
      destroy();
      copy_from(o);
    }
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      destroy();
      move_from(std::move(o));
    }
    return *this;
  }
  ~Value() { destroy(); }

  [[nodiscard]] bool is_nil() const noexcept { return kind_ == Kind::nil; }
  [[nodiscard]] bool is_bool() const noexcept {
    return kind_ == Kind::boolean;
  }
  [[nodiscard]] bool is_int() const noexcept {
    return kind_ == Kind::integer;
  }
  [[nodiscard]] bool is_real() const noexcept { return kind_ == Kind::real; }
  [[nodiscard]] bool is_ref() const noexcept { return kind_ == Kind::ref; }
  [[nodiscard]] bool is_str() const noexcept { return kind_ == Kind::str; }

  [[nodiscard]] bool as_bool() const {
    require(Kind::boolean);
    return b_;
  }
  [[nodiscard]] std::int64_t as_int() const {
    require(Kind::integer);
    return i_;
  }
  [[nodiscard]] double as_real() const {
    require(Kind::real);
    return d_;
  }
  [[nodiscard]] ObjectRef as_ref() const {
    require(Kind::ref);
    return r_;
  }
  [[nodiscard]] const std::string& as_str() const {
    require(Kind::str);
    return s_;
  }

  // Numeric coercion helper: many managed methods accept int-or-real.
  [[nodiscard]] double to_real() const {
    if (is_int()) return static_cast<double>(i_);
    return as_real();
  }

  // Bytes an integer, real or reference contributes to a serialized message.
  static constexpr std::uint64_t kScalarWireSize = 8;

  // Bytes this value contributes to a serialized message.
  [[nodiscard]] std::uint64_t wire_size() const noexcept {
    switch (kind_) {
      case Kind::nil:
      case Kind::boolean:
        return 1;
      case Kind::integer:
      case Kind::real:
      case Kind::ref:
        return kScalarWireSize;
      case Kind::str:
        return 4 + s_.size();
    }
    return 0;  // unreachable
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::nil:
        return true;
      case Kind::boolean:
        return a.b_ == b.b_;
      case Kind::integer:
        return a.i_ == b.i_;
      case Kind::real:
        return a.d_ == b.d_;
      case Kind::ref:
        return a.r_ == b.r_;
      case Kind::str:
        return a.s_ == b.s_;
    }
    return false;  // unreachable
  }

 private:
  enum class Kind : std::uint8_t { nil, boolean, integer, real, ref, str };

  void require(Kind k) const {
    if (kind_ != k) {
      throw VmError(VmErrorCode::type_mismatch, "bad Value access");
    }
  }

  void destroy() noexcept {
    if (kind_ == Kind::str) [[unlikely]] {
      s_.~basic_string();
    }
  }
  // Callers guarantee *this holds no live string (fresh storage or after
  // destroy()).
  void copy_from(const Value& o) {
    if (o.kind_ == Kind::str) [[unlikely]] {
      new (&s_) std::string(o.s_);
    } else {
      payload_ = o.payload_;
    }
    kind_ = o.kind_;
  }
  void move_from(Value&& o) noexcept {
    if (o.kind_ == Kind::str) [[unlikely]] {
      new (&s_) std::string(std::move(o.s_));
    } else {
      payload_ = o.payload_;
    }
    kind_ = o.kind_;
  }

  union {
    std::uint64_t payload_ = 0;  // raw copy channel for the non-string kinds
    bool b_;
    std::int64_t i_;
    double d_;
    ObjectRef r_;
    std::string s_;
  };
  Kind kind_ = Kind::nil;
};

// Total wire size of an argument pack plus a fixed per-message header.
[[nodiscard]] inline std::uint64_t args_wire_size(
    std::span<const Value> args) noexcept {
  std::uint64_t total = 0;
  for (const auto& v : args) total += v.wire_size();
  return total;
}

}  // namespace aide::vm
