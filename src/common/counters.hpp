// Flat counter structs.
//
// The stats structs (rpc::EndpointStats, platform::ServerStats and
// platform::PoolStats) hold nothing but std::uint64_t counters, so each is
// layout-compatible with an array of them. One accumulator sums such a struct
// slot by slot: a field added to it is summed with no list to keep in sync,
// and a field of another type fails the accumulator's static_assert.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace aide {

template <class Stats>
using CounterArray =
    std::array<std::uint64_t, sizeof(Stats) / sizeof(std::uint64_t)>;

// Adds every counter of `from` into `into`.
template <class Stats>
Stats& accumulate_counters(Stats& into, const Stats& from) noexcept {
  static_assert(sizeof(Stats) % sizeof(std::uint64_t) == 0 &&
                    alignof(Stats) == alignof(std::uint64_t) &&
                    std::has_unique_object_representations_v<Stats>,
                "a stats struct must stay a flat array of uint64_t counters");
  auto sum = std::bit_cast<CounterArray<Stats>>(into);
  const auto add = std::bit_cast<CounterArray<Stats>>(from);
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += add[i];
  into = std::bit_cast<Stats>(sum);
  return into;
}

}  // namespace aide
