// Differential testing of the batched transport (batching on vs off).
//
// Batching is a transport-level optimization: it may change how many frames
// fly and how much virtual time they cost, but never what the program
// observes or in what order. Two harnesses pin that down:
//
//   * App parity — each paper application runs on the platform twice, with
//     the batched transport enabled (the default) and disabled (legacy
//     per-op framing). Both runs must produce the standalone checksum, and
//     the ordered stream of instrumented VM events on the client — the
//     observable yield points — must be identical event for event.
//     Timestamps and byte counts are deliberately excluded from the digest:
//     batching is allowed to compress time, not to reorder, drop, or invent
//     events.
//
//   * Seeded sweep — a randomized remote-heavy program (same spirit as
//     mincut_differential_test's seeded sweeps) cross-checked standalone vs
//     batched vs unbatched across seeds, with periodic forced offloads so
//     the traffic keeps crossing the link.
//
// Nor does batching depend on what the registry declares: each app also runs
// with a never-called class of unknown effects registered, and must match its
// plain run in every transport counter and in virtual time.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "apps/apps.hpp"
#include "bench/forced_offload.hpp"
#include "common/rng.hpp"
#include "platform/platform.hpp"
#include "tests/test_util.hpp"
#include "vm/hooks.hpp"

namespace aide {
namespace {

using vm::ObjectRef;
using vm::Value;
using vm::Vm;

const char* const kApps[] = {"JavaNote", "Dia", "Biomer", "Voxel", "Tracer"};

// Order-sensitive digest of every instrumented event the client VM emits.
class EventOrderDigest : public vm::VmHooks {
 public:
  void on_invoke(const vm::InvokeEvent& e) override {
    fold(1);
    fold(e.vm.value());
    fold(e.caller_cls.value());
    fold(e.callee_cls.value());
    fold(e.method.value());
    fold(e.caller_obj.value());
    fold(e.callee_obj.value());
    fold(static_cast<std::uint64_t>(e.is_static));
    fold(static_cast<std::uint64_t>(e.is_native));
    fold(static_cast<std::uint64_t>(e.remote));
  }
  void on_access(const vm::AccessEvent& e) override {
    fold(2);
    fold(e.vm.value());
    fold(e.from_cls.value());
    fold(e.to_cls.value());
    fold(e.from_obj.value());
    fold(e.to_obj.value());
    fold(static_cast<std::uint64_t>(e.is_write));
    fold(static_cast<std::uint64_t>(e.is_static));
    fold(static_cast<std::uint64_t>(e.remote));
  }

  std::uint64_t digest = 0x9E3779B97F4A7C15ULL;
  std::uint64_t events = 0;

 private:
  void fold(std::uint64_t v) {
    digest ^= v + 0x9E3779B97F4A7C15ULL + (digest << 6) + (digest >> 2);
    ++events;
  }
};

platform::PlatformConfig platform_config(bool batching) {
  platform::PlatformConfig cfg = bench::forced_offload_config();
  cfg.batching = batching;
  return cfg;
}

// A class no app code ever calls. Its native declares effect IR (none) but
// no NativeEffect, so aideverify gives it the unknown (⊤) summary: the one
// registry shape a static proof of write-behind safety would refuse.
void register_sensor(vm::ClassRegistry& reg) {
  reg.register_class(vm::ClassBuilder("Sensor")
                         .native_method("sample",
                                        [](Vm&, ObjectRef, auto) -> Value {
                                          return Value{std::int64_t{0}};
                                        })
                         .no_effects()
                         .build());
}

struct RunOut {
  std::uint64_t checksum = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  rpc::EndpointStats client;
  SimDuration elapsed = 0;
};

RunOut run_app(const apps::AppInfo& app, const apps::AppParams& params,
               bool batching, bool sensor = false) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  if (sensor) register_sensor(*reg);
  platform::Platform p(reg, platform_config(batching));
  bench::ForcedOffload forced(p);
  EventOrderDigest order;
  p.client().add_hooks(&forced);
  p.client().add_hooks(&order);
  RunOut o;
  o.checksum = app.run(p.client(), params);
  p.client().remove_hooks(&order);
  p.client().remove_hooks(&forced);
  o.digest = order.digest;
  o.events = order.events;
  o.client = p.client_endpoint().stats();
  o.elapsed = p.elapsed();
  return o;
}

class BatchAppParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchAppParityTest, BatchingPreservesOutputAndEventOrder) {
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();
  const std::uint64_t expected = bench::standalone_checksum(app, params);

  const RunOut batched = run_app(app, params, true);
  const RunOut legacy = run_app(app, params, false);

  // Byte-identical output against the standalone ground truth, both ways.
  EXPECT_EQ(batched.checksum, expected);
  EXPECT_EQ(legacy.checksum, expected);

  // Identical event stream at the yield points: same events, same order.
  EXPECT_EQ(batched.events, legacy.events);
  EXPECT_EQ(batched.digest, legacy.digest);

  // And the transport did its job: batching never costs frames, and the
  // same logical op stream crossed the link.
  EXPECT_LE(batched.client.rpcs_sent, legacy.client.rpcs_sent);
}

INSTANTIATE_TEST_SUITE_P(Apps, BatchAppParityTest, ::testing::ValuesIn(kApps));

// Write-behind needs no proof about the program: registering a class that
// never runs, whose effects are unknown, leaves every frame, counter and
// virtual instant of the run as it was.
TEST_P(BatchAppParityTest, UnusedUndeclaredNativeChangesNothing) {
  const auto& app = apps::app_by_name(GetParam());
  const auto params = bench::small_app_params();

  const RunOut plain = run_app(app, params, true);
  const RunOut with_sensor = run_app(app, params, true, /*sensor=*/true);

  EXPECT_EQ(with_sensor.checksum, plain.checksum);
  EXPECT_EQ(with_sensor.digest, plain.digest);
  EXPECT_EQ(with_sensor.client, plain.client);  // every stat, frame for frame
  EXPECT_EQ(with_sensor.elapsed, plain.elapsed);
}

// --- seeded sweep ------------------------------------------------------------

constexpr int kSlots = 16;
constexpr int kOps = 400;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

// A remote-heavy random program: once the heap is offloaded, most slots hold
// remote objects, so field traffic, array traffic, and calls keep crossing
// the link — exactly the ops the batched transport coalesces.
std::uint64_t run_random(Vm& vm, std::uint64_t seed,
                         const std::function<void()>& offload) {
  Rng rng(seed);
  std::uint64_t checksum = seed;

  const ObjectRef roots = vm.new_ref_array(kSlots);
  vm.add_root(roots);

  auto slot = [&](int i) {
    return vm.get_field(roots, FieldId{static_cast<std::uint32_t>(i)});
  };
  auto set_slot = [&](int i, const Value& v) {
    vm.put_field(roots, FieldId{static_cast<std::uint32_t>(i)}, v);
  };
  auto observe = [&](const Value& v) {
    if (v.is_int()) {
      checksum = mix(checksum, static_cast<std::uint64_t>(v.as_int()));
    } else if (v.is_str()) {
      checksum = mix(checksum, v.as_str().size());
    } else if (v.is_ref()) {
      checksum = mix(checksum, v.as_ref().is_null() ? 3 : 4);
    } else {
      checksum = mix(checksum, 5);
    }
  };

  for (int op = 0; op < kOps; ++op) {
    const int target = static_cast<int>(rng.next_below(kSlots));
    const Value current = slot(target);
    const bool have_obj = current.is_ref() && !current.as_ref().is_null();

    switch (rng.next_below(8)) {
      case 0:
        set_slot(target, Value{vm.new_object("Counter")});
        break;
      case 1: {
        const ObjectRef pair = vm.new_object("Pair");
        vm.put_field(pair, FieldId{0},
                     Value{static_cast<std::int64_t>(rng.next_u64() % 997)});
        vm.put_field(pair, FieldId{1},
                     Value{std::string(rng.next_below(32), 'b')});
        set_slot(target, Value{pair});
        break;
      }
      case 2:
        set_slot(target,
                 Value{vm.new_int_array(
                     8 + static_cast<std::int64_t>(rng.next_below(256)))});
        break;
      case 3:  // consecutive writes then reads: a natural multi-op burst
        if (have_obj && vm.class_of(current.as_ref().id) ==
                            vm.find_class("Pair")) {
          vm.put_field(current.as_ref(), FieldId{0},
                       Value{static_cast<std::int64_t>(op)});
          vm.put_field(current.as_ref(), FieldId{1},
                       Value{std::string(1 + op % 7, 'x')});
          observe(vm.get_field(current.as_ref(), FieldId{0}));
          observe(vm.get_field(current.as_ref(), FieldId{1}));
        }
        break;
      case 4:
        if (have_obj && vm.class_of(current.as_ref().id) ==
                            vm.find_class("Counter")) {
          observe(vm.call(current.as_ref(), "inc"));
          observe(vm.call(current.as_ref(), "get"));
        }
        break;
      case 5:
        if (have_obj) {
          const ObjectRef ref = current.as_ref();
          if (vm.class_of(ref.id) == vm.registry().int_array_class()) {
            const std::int64_t n = vm.array_length(ref);
            const auto ix = static_cast<std::int64_t>(
                rng.next_below(static_cast<std::uint64_t>(n)));
            vm.array_put(ref, ix, Value{static_cast<std::int64_t>(op * 3)});
            observe(vm.array_get(ref, ix));
          }
        }
        break;
      case 6:
        vm.put_static("Calc", "memory", Value{static_cast<std::int64_t>(op)});
        observe(vm.get_static("Calc", "memory"));
        break;
      case 7:
        set_slot(target, Value{vm::kNullRef});
        break;
    }

    if (op % 89 == 31) vm.collect_garbage();
    if (offload && op % 40 == 39) offload();
    vm.clear_driver_roots();
  }

  vm.remove_root(roots);
  vm.clear_driver_roots();
  return checksum;
}

std::uint64_t run_random_on_platform(std::uint64_t seed, bool batching) {
  auto reg = aide::test::make_test_registry();
  platform::PlatformConfig cfg;
  cfg.client_heap = 32 << 20;
  cfg.auto_offload = false;  // run_random drives its own offloads
  cfg.batching = batching;
  platform::Platform p(reg, cfg);
  return run_random(p.client(), seed,
                    [&p] { p.offload_now(std::int64_t{1}); });
}

class BatchSeededSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchSeededSweepTest, RandomRemoteTrafficIsTransportInvariant) {
  const std::uint64_t seed = GetParam();

  auto reg = aide::test::make_test_registry();
  SimClock clock;
  vm::VmConfig cfg;
  cfg.heap_capacity = 32 << 20;
  Vm standalone(cfg, reg, clock);
  const auto expected = run_random(standalone, seed, nullptr);

  EXPECT_EQ(run_random_on_platform(seed, true), expected) << "seed " << seed;
  EXPECT_EQ(run_random_on_platform(seed, false), expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchSeededSweepTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace aide
