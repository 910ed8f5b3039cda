// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used by the rpc frame header to detect corrupted-in-transit messages: any
// single-byte flip the chaos injector produces is guaranteed to change the
// checksum, so a corrupt frame is always rejected rather than decoded.
//
// Slicing-by-8 (Intel's table-driven scheme): eight 256-entry tables fold
// eight input bytes per step instead of one, giving checksums bit-identical
// to the byte-at-a-time loop several times faster. Input words are assembled
// from bytes, so the result does not depend on host byte order. Wider slices
// (16 bytes) buy little on large buffers and lose on the small frames that
// dominate rpc traffic; the SSE4.2 `crc32` instruction computes a different
// polynomial (Castagnoli), so it cannot stand in for this one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace aide {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte table; tables[k][i] is the CRC of byte i
// followed by k zero bytes, which is what lets one lookup per table fold a
// whole 8-byte word.
constexpr Crc32Tables make_crc32_tables() noexcept {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// Little-endian 32-bit load from unaligned bytes (compilers fuse this into a
// single load on little-endian targets).
[[nodiscard]] constexpr std::uint32_t load_le32(
    const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

// CRC32 of `data`. Chainable like zlib's crc32(): passing the checksum of a
// prefix as `crc` continues it, so crc32(b, crc32(a)) == crc32(a ++ b).
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data,
                                         std::uint32_t crc = 0) noexcept {
  const auto& t = detail::kCrc32Tables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace aide
