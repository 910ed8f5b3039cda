// Microbenchmarks (google-benchmark) for the platform's building blocks:
// the partitioning heuristic's scaling, wire serialization, RPC round trips,
// garbage collection, monitoring hook overhead, the link model, and the
// frame checksum's two kernels (bytes/s per input size).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "graph/mincut.hpp"
#include "monitor/monitor.hpp"
#include "netsim/link.hpp"
#include "rpc/endpoint.hpp"
#include "vm/vm.hpp"

namespace {

using namespace aide;

// --- partitioning -----------------------------------------------------------

graph::ExecGraph random_app_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  graph::ExecGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    const graph::ComponentKey key{ClassId{static_cast<std::uint32_t>(i)}};
    g.add_memory(key, static_cast<std::int64_t>(rng.next_below(1 << 20)), 1);
    if (i < n / 10 + 1) g.set_pinned(key, true);
  }
  // Sparse power-law-ish interaction structure.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t degree = 1 + rng.next_below(4);
    for (std::size_t d = 0; d < degree; ++d) {
      const std::size_t j = rng.next_below(i);
      graph::EdgeInfo e;
      e.invocations = rng.next_below(1000);
      e.bytes = rng.next_below(100000);
      g.set_edge(graph::ComponentKey{ClassId{static_cast<std::uint32_t>(i)}},
                 graph::ComponentKey{ClassId{static_cast<std::uint32_t>(j)}},
                 e);
    }
  }
  return g;
}

void BM_ModifiedMincut(benchmark::State& state) {
  const auto g = random_app_graph(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::modified_mincut(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ModifiedMincut)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_StoerWagner(benchmark::State& state) {
  const auto g = random_app_graph(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::stoer_wagner_min_cut(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StoerWagner)->RangeMultiplier(2)->Range(16, 128)->Complexity();

// --- VM + monitoring ---------------------------------------------------------

std::shared_ptr<vm::ClassRegistry> micro_registry() {
  auto reg = std::make_shared<vm::ClassRegistry>();
  vm::ClassBuilder counter("Counter");
  counter.field("n");
  counter.method("inc", [](vm::Vm& ctx, vm::ObjectRef self, auto) {
    const vm::Value n = ctx.get_field(self, FieldId{0});
    ctx.put_field(self, FieldId{0},
                  vm::Value{(n.is_int() ? n.as_int() : 0) + 1});
    return vm::Value{};
  });
  reg->register_class(counter.build());
  return reg;
}

void BM_InvokeLocal(benchmark::State& state) {
  auto reg = micro_registry();
  SimClock clock;
  vm::VmConfig cfg;
  cfg.heap_capacity = 16 << 20;
  vm::Vm vm(cfg, reg, clock);
  const auto counter = vm.new_object("Counter");
  vm.add_root(counter);
  const MethodId inc = reg->get(reg->find("Counter")).find_method("inc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.invoke(counter, inc, {}));
  }
}
BENCHMARK(BM_InvokeLocal);

void BM_InvokeLocalMonitored(benchmark::State& state) {
  auto reg = micro_registry();
  SimClock clock;
  vm::VmConfig cfg;
  cfg.heap_capacity = 16 << 20;
  vm::Vm vm(cfg, reg, clock);
  monitor::ExecutionMonitor monitor(reg);
  vm.add_hooks(&monitor);
  const auto counter = vm.new_object("Counter");
  vm.add_root(counter);
  const MethodId inc = reg->get(reg->find("Counter")).find_method("inc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.invoke(counter, inc, {}));
  }
}
BENCHMARK(BM_InvokeLocalMonitored);

void BM_InvokeRemote(benchmark::State& state) {
  auto reg = micro_registry();
  SimClock clock;
  netsim::Link link;
  vm::VmConfig ccfg;
  ccfg.node = NodeId{1};
  ccfg.heap_capacity = 16 << 20;
  vm::VmConfig scfg;
  scfg.node = NodeId{2};
  scfg.is_client = false;
  scfg.heap_capacity = 64 << 20;
  vm::Vm client(ccfg, reg, clock);
  vm::Vm surrogate(scfg, reg, clock);
  rpc::Endpoint ce(client, link), se(surrogate, link);
  rpc::Endpoint::connect(ce, se);

  const auto counter = client.new_object("Counter");
  client.add_root(counter);
  const ObjectId ids[] = {counter.id};
  ce.migrate_objects(ids);
  const MethodId inc = reg->get(reg->find("Counter")).find_method("inc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.invoke(counter, inc, {}));
  }
}
BENCHMARK(BM_InvokeRemote);

void BM_GcCycle(benchmark::State& state) {
  auto reg = micro_registry();
  SimClock clock;
  vm::VmConfig cfg;
  cfg.heap_capacity = 64 << 20;
  cfg.gc_alloc_count_threshold = 1 << 30;
  cfg.gc_alloc_bytes_divisor = 0;
  vm::Vm vm(cfg, reg, clock);
  const auto live = static_cast<int>(state.range(0));
  for (int i = 0; i < live; ++i) {
    vm.add_root(vm.new_object("Counter"));
  }
  vm.clear_driver_roots();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.collect_garbage());
  }
  state.SetComplexityN(live);
}
BENCHMARK(BM_GcCycle)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_MigrateObjects(benchmark::State& state) {
  auto reg = micro_registry();
  for (auto _ : state) {
    state.PauseTiming();
    SimClock clock;
    netsim::Link link;
    vm::VmConfig ccfg;
    ccfg.node = NodeId{1};
    ccfg.heap_capacity = 64 << 20;
    vm::VmConfig scfg;
    scfg.node = NodeId{2};
    scfg.is_client = false;
    scfg.heap_capacity = 64 << 20;
    vm::Vm client(ccfg, reg, clock);
    vm::Vm surrogate(scfg, reg, clock);
    rpc::Endpoint ce(client, link), se(surrogate, link);
    rpc::Endpoint::connect(ce, se);
    std::vector<ObjectId> ids;
    for (int i = 0; i < state.range(0); ++i) {
      const auto obj = client.new_object("Counter");
      client.add_root(obj);
      ids.push_back(obj.id);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(ce.migrate_objects(ids));
  }
}
BENCHMARK(BM_MigrateObjects)->Arg(100)->Arg(1000);

void BM_LinkCost(benchmark::State& state) {
  netsim::Link link;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.one_way_cost(bytes));
    bytes = (bytes + 131) & 0xFFFF;
  }
}
BENCHMARK(BM_LinkCost);

// --- frame checksum ---------------------------------------------------------

std::vector<std::uint8_t> checksum_input(benchmark::State& state) {
  Rng rng(0xC3C);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  return buf;
}

// Each pass continues the previous checksum, so passes run back to back
// like the frames of one connection instead of overlapping.
void BM_Crc32Table(benchmark::State& state) {
  const auto buf = checksum_input(state);
  std::uint32_t reg = ~0u;
  for (auto _ : state) {
    reg = detail::crc32_table(buf.data(), buf.size(), reg);
    benchmark::DoNotOptimize(reg);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Table)->Arg(64)->Arg(1 << 10)->Arg(64 << 10)->Arg(1 << 20);

// The public checksum: the carry-less-multiply fold from 64 bytes up where
// the CPU has it, the table otherwise.
void BM_Crc32(benchmark::State& state) {
  const auto buf = checksum_input(state);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32(buf, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1 << 10)->Arg(64 << 10)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
