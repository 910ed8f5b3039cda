// Wire serialization for values and migrated objects.
//
// Every remote interaction between the two VMs is really encoded to bytes and
// decoded on the other side — the byte counts are what the link model charges
// and what the execution monitor records as "information exchanged".
// Object references are translated through a RefTranslator implemented by the
// endpoint over its reference-mapping tables (paper 3.2: each JVM maps the
// other's references into its own namespace).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "vm/object.hpp"
#include "vm/value.hpp"

namespace aide::rpc {

// Transport framing: every message between the two endpoints travels inside
// a 16-byte header
//
//   [u32 crc][u32 epoch][u64 seq][payload...]
//
// where `crc` is a CRC32 over everything after itself. The epoch is the
// sender's migration-epoch fencing token (stale frames from before an offload
// are rejected); `seq` is the per-sender RPC sequence number that drives
// at-most-once dedup. A frame whose CRC does not match is indistinguishable
// from a lost message to the sender: it times out and retransmits.
inline constexpr std::size_t kFrameHeaderSize = 16;

// A sealed frame. The header is held apart from the payload it covers, so
// sealing adopts the encoded payload instead of copying it in behind a
// header; on the wire the two are contiguous, header first. A sealed frame
// is immutable and travels by shared reference: the sender's retransmit
// slot, the receiver's reply cache, the reorder injector's snapshot and a
// PREPARE-staged batch all hold the one buffer. Whatever must alter the
// bytes (corruption injection) works on a private copy.
struct Frame {
  std::array<std::uint8_t, kFrameHeaderSize> header{};
  std::vector<std::uint8_t> payload;

  // Wire size: what the link charges for this frame.
  [[nodiscard]] std::size_t size() const noexcept {
    return kFrameHeaderSize + payload.size();
  }
};
using SharedFrame = std::shared_ptr<const Frame>;

struct FrameView {
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  std::span<const std::uint8_t> payload;
};

// Seals `payload` under an (epoch, seq) header with one CRC pass; the
// payload is moved in, never copied.
[[nodiscard]] SharedFrame seal_frame(std::uint32_t epoch, std::uint64_t seq,
                                     std::vector<std::uint8_t> payload);
// Validates the CRC with one pass; nullopt means the frame is corrupt. The
// view's payload points into `frame`.
[[nodiscard]] std::optional<FrameView> parse_frame(const Frame& frame) noexcept;

// A reference as it appears on the wire: the owning node and the owner's
// export handle, plus enough metadata (identity, class, shape) for the
// receiver to materialize a stub without a round trip.
struct WireRef {
  NodeId owner;
  ExportHandle handle = ExportHandle::invalid();
  ObjectId id;
  ClassId cls;
  vm::ObjectKind kind = vm::ObjectKind::plain;
};

class RefTranslator {
 public:
  virtual ~RefTranslator() = default;
  // Outgoing: local reference -> wire form (registering exports as needed).
  virtual WireRef translate_out(vm::ObjectRef ref) = 0;
  // Incoming: wire form -> local reference (installing stubs as needed).
  virtual vm::ObjectRef translate_in(const WireRef& wire) = 0;
};

void write_wire_ref(ByteWriter& w, const WireRef& ref);
[[nodiscard]] WireRef read_wire_ref(ByteReader& r);

// Multi-op framing: a batch payload is [u8 op][u32 count] followed by `count`
// length-prefixed sections, each holding one legacy single-op request (or,
// on the reply side, one complete single-op reply including its status byte).
// One frame header and one CRC cover the whole batch, so a corrupted or
// stale batch is rejected as a unit and retried as a unit.
void write_op_section(ByteWriter& w, std::span<const std::uint8_t> op);
[[nodiscard]] std::span<const std::uint8_t> read_op_section(ByteReader& r);

void write_value(ByteWriter& w, const vm::Value& v, RefTranslator& tr);
[[nodiscard]] vm::Value read_value(ByteReader& r, RefTranslator& tr);

// Object migration is encoded in two sections so that reference cycles among
// co-migrated objects resolve: first all object headers (identity + shape),
// then all payloads (fields / array contents).
void write_object_header(ByteWriter& w, const vm::Object& obj);
struct ObjectHeader {
  ObjectId id;
  ClassId cls;
  vm::ObjectKind kind;
  std::int64_t ints_len = 0;
  std::int64_t chars_len = 0;
  std::uint32_t field_count = 0;
};
[[nodiscard]] ObjectHeader read_object_header(ByteReader& r);

void write_object_payload(ByteWriter& w, const vm::Object& obj,
                          RefTranslator& tr);
// Fills `obj` (created from its header) from the payload section.
void read_object_payload(ByteReader& r, vm::Object& obj, RefTranslator& tr);

}  // namespace aide::rpc
