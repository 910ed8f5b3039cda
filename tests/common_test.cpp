// Tests for the common kernel: strong ids, deterministic RNG, the virtual
// clock, the byte reader/writer used by the wire codec, the frame CRC32 and
// the flat-counter accumulator behind the stats structs' operator+=.
#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/counters.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/simclock.hpp"
#include "platform/surrogate_server.hpp"
#include "rpc/endpoint.hpp"

namespace aide {
namespace {

TEST(StrongIdTest, DefaultIsInvalid) {
  ClassId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, ClassId::invalid());
}

TEST(StrongIdTest, ValueRoundTrip) {
  ObjectId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(StrongIdTest, Ordering) {
  EXPECT_LT(ClassId{1}, ClassId{2});
  EXPECT_EQ(ClassId{7}, ClassId{7});
  EXPECT_NE(ClassId{7}, ClassId{8});
}

TEST(StrongIdTest, DistinctTypesHashIndependently) {
  std::unordered_set<ClassId> classes{ClassId{1}, ClassId{2}, ClassId{1}};
  EXPECT_EQ(classes.size(), 2u);
  std::unordered_set<ObjectId> objects{ObjectId{1}};
  EXPECT_EQ(objects.size(), 1u);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
  }
}

TEST(RngTest, NextRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SimClockTest, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(sim_ms(5));
  EXPECT_EQ(clock.now(), sim_ms(5));
}

TEST(SimClockTest, NegativeAdvanceIgnored) {
  SimClock clock;
  clock.advance(sim_us(10));
  clock.advance(-sim_us(100));
  EXPECT_EQ(clock.now(), sim_us(10));
}

TEST(SimClockTest, UnitConversions) {
  EXPECT_EQ(sim_us(1), 1000);
  EXPECT_EQ(sim_ms(1), 1'000'000);
  EXPECT_EQ(sim_sec(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(sim_to_seconds(sim_sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(sim_to_ms(sim_ms(7)), 7.0);
}

TEST(BytesTest, PodRoundTrip) {
  ByteWriter w;
  w.write_u8(7);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_i64(-42);
  w.write_f64(3.25);

  ByteReader r(w.data());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, StringRoundTrip) {
  ByteWriter w;
  w.write_string("hello");
  w.write_string("");
  w.write_string(std::string(10000, 'x'));

  ByteReader r(w.data());
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string().size(), 10000u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, TruncatedReadThrows) {
  ByteWriter w;
  w.write_u32(5);
  ByteReader r(w.data());
  EXPECT_EQ(r.read_u32(), 5u);
  EXPECT_THROW(r.read_u64(), std::out_of_range);
}

TEST(BytesTest, TruncatedStringThrows) {
  ByteWriter w;
  w.write_u32(100);  // claims 100 bytes that are not there
  ByteReader r(w.data());
  EXPECT_THROW(r.read_string(), std::out_of_range);
}

TEST(BytesTest, TakeMovesBuffer) {
  ByteWriter w;
  w.write_u32(1);
  const auto buf = std::move(w).take();
  EXPECT_EQ(buf.size(), 4u);
}

// Byte-at-a-time CRC32 straight from the polynomial: the oracle both
// kernels must match bit for bit. Chains like crc32().
std::uint32_t reference_crc32(std::span<const std::uint8_t> data,
                              std::uint32_t crc = 0) {
  crc = ~crc;
  for (const std::uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

using Crc32Kernel = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                      std::uint32_t) noexcept;

// The carry-less-multiply kernel when this CPU runs it, else nullptr (crc32()
// then runs the table alone).
Crc32Kernel fold_kernel() {
#if defined(__x86_64__)
  if (detail::cpu_has_crc32_fold()) return &detail::crc32_fold;
#endif
  return nullptr;
}

TEST(Crc32Test, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(check.data()),
                   check.size()}),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths straddle the 8-byte slice boundary, the fold's 64-byte entry
  // (63/64/65), its 16-byte blocks with a table tail (79/80) and its 64-byte
  // loop (127/128); every start offset exercises unaligned loads.
  const auto buf = random_bytes(300 + 16, 0xC3C32);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto data = std::span(buf).subspan(offset, len);
      EXPECT_EQ(crc32(data), reference_crc32(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnLargeBuffer) {
  const auto buf = random_bytes(std::size_t{4} << 20, 0xB16C3C);
  EXPECT_EQ(crc32(buf), reference_crc32(buf));
}

TEST(Crc32Test, ChainsAcrossSplitPoints) {
  const auto buf = random_bytes(1024, 0x5B117);
  const std::uint32_t whole = crc32(buf);
  EXPECT_EQ(whole, reference_crc32(buf));
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const auto head = std::span(buf).first(cut);
    const auto tail = std::span(buf).subspan(cut);
    EXPECT_EQ(crc32(tail, crc32(head)), whole) << "cut at " << cut;
  }
}

TEST(Crc32Test, FoldMatchesTableAndReference) {
  const Crc32Kernel fold = fold_kernel();
  if (fold == nullptr) GTEST_SKIP() << "CPU lacks PCLMULQDQ or SSE4.1";
  // Every length the fold accepts from 64 B to 70 KiB can come up, but most
  // cases are frame-sized (up to 1 KiB) so that 100,000 of them stay quick
  // against the bit-serial reference. Each case starts from the register
  // the previous one left.
  constexpr std::size_t kMaxBlocks = (std::size_t{70} << 10) / 16;
  const auto buf = random_bytes(kMaxBlocks * 16 + 63, 0xF01D);
  Rng rng(0xC1A55);
  auto state = static_cast<std::uint32_t>(rng.next_u64());
  for (int i = 0; i < 100'000; ++i) {
    const std::size_t offset = rng.next_below(64);
    const std::size_t max_blocks = rng.next_below(64) == 0 ? kMaxBlocks : 64;
    const std::size_t len = 16 * (4 + rng.next_below(max_blocks - 3));
    const auto data = std::span(buf).subspan(offset, len);
    const std::uint32_t got = fold(data.data(), len, state);
    ASSERT_EQ(got, detail::crc32_table(data.data(), len, state))
        << "case " << i << " offset " << offset << " length " << len;
    ASSERT_EQ(got, ~reference_crc32(data, ~state))
        << "case " << i << " offset " << offset << " length " << len;
    state = got;
  }
}

TEST(Crc32Test, EverySingleByteFlipChangesBothKernels) {
  // The chaos injector's corrupted_copy XORs one byte with 0xFF.
  auto buf = random_bytes(4096, 0xF11F);
  std::vector<Crc32Kernel> kernels{&detail::crc32_table};
  if (const Crc32Kernel fold = fold_kernel()) kernels.push_back(fold);
  for (const Crc32Kernel kernel : kernels) {
    const std::uint32_t clean = kernel(buf.data(), buf.size(), ~0u);
    for (std::size_t at = 0; at < buf.size(); ++at) {
      buf[at] ^= 0xFF;
      EXPECT_NE(kernel(buf.data(), buf.size(), ~0u), clean) << "byte " << at;
      buf[at] ^= 0xFF;
    }
  }
  if (kernels.size() == 1) {
    GTEST_SKIP() << "table checked; CPU lacks PCLMULQDQ or SSE4.1";
  }
}

TEST(ErrorTest, VmErrorCarriesCode) {
  const VmError e(VmErrorCode::out_of_memory, "heap full");
  EXPECT_EQ(e.code(), VmErrorCode::out_of_memory);
  EXPECT_NE(std::string(e.what()).find("out_of_memory"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("heap full"), std::string::npos);
}

TEST(ErrorTest, AllCodesHaveNames) {
  for (const auto code :
       {VmErrorCode::out_of_memory, VmErrorCode::unknown_class,
        VmErrorCode::unknown_method, VmErrorCode::unknown_field,
        VmErrorCode::bad_array_index, VmErrorCode::null_reference,
        VmErrorCode::type_mismatch, VmErrorCode::native_not_registered,
        VmErrorCode::stack_overflow}) {
    EXPECT_NE(to_string(code), "unknown");
  }
}

TEST(SplitMixTest, Deterministic) {
  std::uint64_t s1 = 99, s2 = 99;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

// operator+= must sum every field of a flat stats struct: populate each
// uint64 slot with a distinct nonzero value, accumulate twice into a zeroed
// struct, and demand each slot doubled (sums, not overwrites or drops).
template <class Stats>
class FlatCountersTest : public ::testing::Test {};
using FlatCounterStructs =
    ::testing::Types<rpc::EndpointStats, platform::ServerStats>;
TYPED_TEST_SUITE(FlatCountersTest, FlatCounterStructs);

TYPED_TEST(FlatCountersTest, AccumulateSumsEveryField) {
  using Raw = CounterArray<TypeParam>;
  Raw raw{};
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = i + 1;
  const auto one = std::bit_cast<TypeParam>(raw);

  TypeParam sum{};
  sum += one;
  EXPECT_EQ(std::bit_cast<Raw>(sum), raw);
  sum += one;
  const Raw twice = std::bit_cast<Raw>(sum);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(twice[i], 2 * (i + 1)) << "field index " << i;
  }
}

}  // namespace
}  // namespace aide
