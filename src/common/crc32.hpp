// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used by the rpc frame header to detect corrupted-in-transit messages: any
// single-byte flip the chaos injector produces is guaranteed to change the
// checksum, so a corrupt frame is always rejected rather than decoded.
//
// Two kernels compute the same checksum bit for bit:
//
// - crc32_fold, on x86-64 CPUs with PCLMULQDQ and SSE4.1: carry-less
//   multiplies fold four 128-bit lanes 64 bytes per step, then fold down to
//   128 bits, reduce 64 -> 32 bits and finish with a Barrett reduction
//   (Intel, "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//   Instruction"; the constants are the ones Linux's crc32-pclmul uses). It
//   takes whole 16-byte blocks and needs at least four of them to start.
// - crc32_table, slicing-by-8 (Intel's table-driven scheme): eight 256-entry
//   tables fold eight input bytes per step. It is the whole path for inputs
//   under 64 bytes (the frame header and short payloads), runs the fold's
//   tail of under 16 bytes, and is the only kernel on CPUs and targets
//   without the fold. Input words are assembled from bytes, so its result
//   does not depend on host byte order.
//
// crc32() picks between them per call from the input size and the CPU
// (crc32_fold_bytes says how much of an input it folds). The
// SSE4.2 `crc32` instruction computes a different polynomial (Castagnoli),
// so it cannot stand in for either.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Both kernels advance the raw CRC register (the checksum before its final
// inversion) over `n` bytes at `p` and return the new register.

// Slicing-by-8 kernel: any length, any CPU.
[[nodiscard]] inline std::uint32_t crc32_table(const std::uint8_t* p,
                                               std::size_t n,
                                               std::uint32_t state) noexcept {
  const auto& t = kCrc32Tables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = state ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

#if defined(__x86_64__)

// True when this CPU runs crc32_fold. Before the runtime has read the CPU's
// feature bits (code running ahead of libgcc's constructor) this reads false,
// which selects the table: slower, still correct.
[[nodiscard]] inline bool cpu_has_crc32_fold() noexcept {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

// One fold step: the 128-bit lane `x` carried forward by the distance its
// constant pair encodes (low half times the low constant, high half times
// the high one) and added onto `next`.
[[gnu::target("pclmul,sse4.1")]] [[nodiscard]] inline __m128i crc32_fold_lane(
    __m128i x, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

[[nodiscard]] inline __m128i crc32_load128(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carry-less-multiply kernel. Requires n >= 64 with n % 16 == 0, and a CPU
// for which cpu_has_crc32_fold() holds. Loads are unaligned and never reach
// past p + n.
[[gnu::target("pclmul,sse4.1")]] [[nodiscard]] inline std::uint32_t crc32_fold(
    const std::uint8_t* p, std::size_t n, std::uint32_t state) noexcept {
  // Constants are bit-reflected, as (high half, low half). x^(512-32) and
  // x^(512+32) mod P carry a lane four lanes (512 bits) on.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // x^(128-32) and x^(128+32) mod P carry a lane one lane on.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // x^64 mod P, for the 64 -> 32 bit step.
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // Barrett reduction: floor(x^64 / P) and P.
  const __m128i mu_poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 = _mm_xor_si128(crc32_load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = crc32_load128(p + 16);
  __m128i x2 = crc32_load128(p + 32);
  __m128i x3 = crc32_load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = crc32_fold_lane(x0, k1k2, crc32_load128(p));
    x1 = crc32_fold_lane(x1, k1k2, crc32_load128(p + 16));
    x2 = crc32_fold_lane(x2, k1k2, crc32_load128(p + 32));
    x3 = crc32_fold_lane(x3, k1k2, crc32_load128(p + 48));
  }
  x0 = crc32_fold_lane(x0, k3k4, x1);
  x0 = crc32_fold_lane(x0, k3k4, x2);
  x0 = crc32_fold_lane(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = crc32_fold_lane(x0, k3k4, crc32_load128(p));
  }

  // 128 -> 64 bits: the low half times x^(128-32) mod P onto the high half
  // (which also appends the 32 zero bits a CRC implies), then 64 -> 32 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));
  // Barrett: q = (low 32 bits * mu) mod x^32, crc = x0 ^ q * P, in bits 32-63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), mu_poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), mu_poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#endif  // __x86_64__

// How many leading bytes of an n-byte input crc32() folds: the largest
// multiple of 16 when n >= 64 on a CPU that runs crc32_fold, else 0 (the
// table takes the whole input).
[[nodiscard]] inline std::size_t crc32_fold_bytes(std::size_t n) noexcept {
#if defined(__x86_64__)
  if (n >= 64 && cpu_has_crc32_fold()) return n & ~std::size_t{15};
#endif
  return 0;
}

}  // namespace detail

// CRC32 of `data`. Chainable like zlib's crc32(): passing the checksum of a
// prefix as `crc` continues it, so crc32(b, crc32(a)) == crc32(a ++ b).
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data,
                                         std::uint32_t crc = 0) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t state = ~crc;
#if defined(__x86_64__)
  if (const std::size_t folded = detail::crc32_fold_bytes(n); folded != 0) {
    state = detail::crc32_fold(p, folded, state);
    p += folded;
    n -= folded;
  }
#endif
  return ~detail::crc32_table(p, n, state);
}

}  // namespace aide
