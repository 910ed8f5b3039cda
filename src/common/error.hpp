// Error taxonomy for the AIDE platform.
//
// The managed runtime reports recoverable application-level failures (out of
// memory, missing class, bad field index) through VmError exceptions; the
// platform layer reports offloading failures through OffloadError. Both carry
// a code so tests can assert on the precise failure class.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace aide {

enum class VmErrorCode {
  out_of_memory,
  unknown_class,
  unknown_method,
  unknown_field,
  bad_array_index,
  null_reference,
  type_mismatch,
  native_not_registered,
  stack_overflow,
};

[[nodiscard]] constexpr std::string_view to_string(VmErrorCode code) noexcept {
  switch (code) {
    case VmErrorCode::out_of_memory: return "out_of_memory";
    case VmErrorCode::unknown_class: return "unknown_class";
    case VmErrorCode::unknown_method: return "unknown_method";
    case VmErrorCode::unknown_field: return "unknown_field";
    case VmErrorCode::bad_array_index: return "bad_array_index";
    case VmErrorCode::null_reference: return "null_reference";
    case VmErrorCode::type_mismatch: return "type_mismatch";
    case VmErrorCode::native_not_registered: return "native_not_registered";
    case VmErrorCode::stack_overflow: return "stack_overflow";
  }
  return "unknown";
}

class VmError : public std::runtime_error {
 public:
  VmError(VmErrorCode code, const std::string& what)
      : std::runtime_error(std::string(to_string(code)) + ": " + what),
        code_(code) {}

  [[nodiscard]] VmErrorCode code() const noexcept { return code_; }

 private:
  VmErrorCode code_;
};

enum class OffloadErrorCode {
  protocol_error,
  peer_unavailable,
};

class OffloadError : public std::runtime_error {
 public:
  OffloadError(OffloadErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] OffloadErrorCode code() const noexcept { return code_; }

 private:
  OffloadErrorCode code_;
};

// An RPC could not be completed because the peer (or the link to it) failed
// and the bounded retry policy was exhausted. Carries the failed call's
// sequence number so the recovery path can retrieve an
// executed-but-undelivered response from the peer's reply cache.
class PeerUnavailable : public OffloadError {
 public:
  PeerUnavailable(std::uint64_t seq, const std::string& what)
      : OffloadError(OffloadErrorCode::peer_unavailable, what), seq_(seq) {}

  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }

 private:
  std::uint64_t seq_;
};

}  // namespace aide
