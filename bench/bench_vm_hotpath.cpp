// Hot-path benchmark: the VM operations every Table 1 scenario pays per
// instrumented op, on the path a Platform's VMs run.
//
// Three loops — field get+put, int-array get+put and a cached CallSite
// invoke — run inside a managed method of a driver class, so every op is an
// interaction between two components, as it is inside an app. Each loop runs
// on identical inputs twice: on a hook-free VM, and on a VM with an
// ExecutionMonitor attached the way a Platform attaches one (add_hooks), so
// every op also updates the execution graph. The monitored/hook-free ratio is
// the instrumentation overhead the paper measures in section 5.1.
//
// A global operator new counter checks that no timed loop allocates. Exit
// status is non-zero when a steady-state loop allocates (full and --smoke
// runs) or, in the full run, when the monitored/hook-free ratio exceeds
// kMaxMonitoredRatio for field access or invoke. Every figure is wall-clock
// time on the machine that runs it. The full run writes BENCH_vm.json,
// naming the build type and compiler; `--smoke` runs fewer ops and writes
// nothing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "monitor/monitor.hpp"
#include "vm/klass.hpp"
#include "vm/vm.hpp"

// --- allocation counter ------------------------------------------------------
// The benchmark is single-threaded; a plain counter keeps the overridden
// operator new cheap.
namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace aide;
using namespace aide::bench;

namespace {

// Monitoring may cost at most this much over the hook-free path (field
// access and invoke; full run only).
constexpr double kMaxMonitoredRatio = 2.5;

// Sized like a live app heap: JavaNote alone holds on the order of a
// thousand objects while editing.
constexpr std::size_t kObjects = 1024;
constexpr std::int64_t kArrayLength = 4096;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double time_best_ms(int repeats, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best * 1e3;
}

// One VM with the benchmark's classes. Bench.Driver.run executes `loop`
// inside its own frame, so each op inside is a Driver -> target interaction.
class Fixture {
 public:
  explicit Fixture(bool monitored)
      : registry_(make_registry()),
        monitor_(registry_),
        vm_(config(), registry_, clock_) {
    if (monitored) vm_.add_hooks(&monitor_);
    driver_ = vm_.new_object("Bench.Driver");
    vm_.add_root(driver_);
  }

  [[nodiscard]] vm::Vm& vm() noexcept { return vm_; }

  // Warms the loop up once (interning classes and edges, growing pools),
  // then times `repeats` runs; returns the best ns per op and counts the
  // timed runs' allocations into `allocs`.
  double time_ns_per_op(std::function<void()> loop, std::size_t ops,
                        int repeats, std::uint64_t& allocs) {
    loop_ = std::move(loop);
    run();
    const std::uint64_t before = g_alloc_count;
    const double ms = time_best_ms(repeats, [&] { run(); });
    allocs = g_alloc_count - before;
    return ms * 1e6 / static_cast<double>(ops);
  }

 private:
  static vm::VmConfig config() {
    vm::VmConfig cfg;
    cfg.node = NodeId{1};
    cfg.name = "bench-vm";
    cfg.heap_capacity = 8 << 20;
    return cfg;
  }

  std::shared_ptr<vm::ClassRegistry> make_registry() {
    auto reg = std::make_shared<vm::ClassRegistry>();
    using vm::ClassBuilder;
    using vm::ObjectRef;
    using vm::Value;
    using vm::Vm;

    reg->register_class(ClassBuilder("Bench.Node")
                            .field("a")
                            .field("b")
                            .field("c")
                            .field("d")
                            .build());
    // Several methods ahead of the probed one, like a real app class.
    ClassBuilder target("Bench.Target");
    target.field("v");
    for (const char* name : {"reset", "size", "first", "last", "merge",
                             "split", "describe"}) {
      target.method(name,
                    [](Vm&, ObjectRef, auto) -> Value { return Value{}; });
    }
    // The probed body is trivial (echo the argument) so the measurement
    // isolates dispatch and monitoring.
    target.method("probe", [](Vm&, ObjectRef, auto args) -> Value {
      return args.empty() ? Value{} : Value{args[0]};
    });
    reg->register_class(target.build());
    reg->register_class(ClassBuilder("Bench.Driver")
                            .method("run",
                                    [this](Vm&, ObjectRef, auto) -> Value {
                                      loop_();
                                      return Value{};
                                    })
                            .build());
    return reg;
  }

  void run() { (void)vm_.call(driver_, "run"); }

  std::shared_ptr<vm::ClassRegistry> registry_;
  SimClock clock_;
  monitor::ExecutionMonitor monitor_;
  vm::Vm vm_;
  vm::ObjectRef driver_;
  std::function<void()> loop_;
};

struct LoopResult {
  std::size_t ops = 0;
  double hook_free_ns = 0;
  double monitored_ns = 0;
  std::uint64_t allocs = 0;  // both configurations' timed runs
  [[nodiscard]] double ratio() const { return monitored_ns / hook_free_ns; }
};

// Runs `make_loop(fixture, sum)` hook-free and monitored; both must compute
// the same sum.
template <typename MakeLoop>
LoopResult measure(const char* what, std::size_t ops, int repeats,
                   MakeLoop&& make_loop) {
  LoopResult out;
  out.ops = ops;
  std::int64_t sums[2] = {0, 0};
  for (const bool monitored : {false, true}) {
    Fixture fx(monitored);
    std::int64_t& sum = sums[monitored ? 1 : 0];
    std::uint64_t allocs = 0;
    const double ns =
        fx.time_ns_per_op(make_loop(fx, sum), ops, repeats, allocs);
    (monitored ? out.monitored_ns : out.hook_free_ns) = ns;
    out.allocs += allocs;
  }
  if (sums[0] != sums[1]) {
    std::fprintf(stderr, "FATAL: %s loops disagree (%lld vs %lld)\n", what,
                 static_cast<long long>(sums[0]),
                 static_cast<long long>(sums[1]));
    std::exit(1);
  }
  return out;
}

// get_field + put_field over a pseudo-random walk of kObjects nodes.
LoopResult run_field(std::size_t ops, int repeats) {
  return measure("field", ops, repeats, [ops](Fixture& fx, std::int64_t& sum) {
    vm::Vm& vm = fx.vm();
    std::vector<vm::ObjectRef> refs;
    for (std::size_t i = 0; i < kObjects; ++i) {
      refs.push_back(vm.new_object("Bench.Node"));
      vm.add_root(refs.back());
      vm.put_field(refs.back(), FieldId{0},
                   vm::Value{static_cast<std::int64_t>(i * 7)});
    }
    return [&vm, &sum, ops, refs = std::move(refs)] {
      sum = 0;
      std::size_t ix = 0;
      for (std::size_t i = 0; i < ops; ++i) {
        const vm::ObjectRef obj = refs[ix];
        const vm::Value got =
            vm.get_field(obj, FieldId{static_cast<std::uint32_t>(i & 3)});
        const std::int64_t v = got.is_int() ? got.as_int() : 0;
        sum += v;
        vm.put_field(obj, FieldId{static_cast<std::uint32_t>((i + 1) & 3)},
                     vm::Value{v + static_cast<std::int64_t>(i)});
        ix = (ix * 25 + 13) % kObjects;
      }
    };
  });
}

// array_get + array_put over a pseudo-random walk of one int array.
LoopResult run_array(std::size_t ops, int repeats) {
  return measure("array", ops, repeats, [ops](Fixture& fx, std::int64_t& sum) {
    vm::Vm& vm = fx.vm();
    const vm::ObjectRef arr = vm.new_int_array(kArrayLength);
    vm.add_root(arr);
    return [&vm, &sum, ops, arr] {
      sum = 0;
      std::int64_t ix = 0;
      for (std::size_t i = 0; i < ops; ++i) {
        const std::int64_t v = vm.array_get(arr, ix).as_int();
        sum += v;
        vm.array_put(arr, (ix + 1) % kArrayLength,
                     vm::Value{v + static_cast<std::int64_t>(i & 0xFF)});
        ix = (ix * 25 + 13) % kArrayLength;
      }
    };
  });
}

// Cached CallSite invokes of a trivial echo method.
LoopResult run_invoke(std::size_t ops, int repeats) {
  return measure("invoke", ops, repeats, [ops](Fixture& fx, std::int64_t& sum) {
    vm::Vm& vm = fx.vm();
    const vm::ObjectRef target = vm.new_object("Bench.Target");
    vm.add_root(target);
    auto probe = std::make_shared<const vm::CallSite>("probe");
    return [&vm, &sum, ops, target, probe] {
      sum = 0;
      for (std::size_t i = 0; i < ops; ++i) {
        sum += vm.call(target, *probe,
                       {vm::Value{static_cast<std::int64_t>(i)}})
                   .as_int();
      }
    };
  });
}

void print_loop(const char* title, const LoopResult& r) {
  std::printf("  %s (%zu ops):\n", title, r.ops);
  std::printf("    hook-free : %8.2f ns/op\n", r.hook_free_ns);
  std::printf("    monitored : %8.2f ns/op  (%.2fx)\n", r.monitored_ns,
              r.ratio());
  std::printf("    allocations in timed loops: %llu\n",
              static_cast<unsigned long long>(r.allocs));
}

void write_loop(std::ofstream& json, const char* name, const LoopResult& r,
                bool last) {
  json << "  \"" << name << "\": {\"ops\": " << r.ops
       << ", \"hook_free_ns_per_op\": " << r.hook_free_ns
       << ", \"monitored_ns_per_op\": " << r.monitored_ns
       << ", \"monitored_ratio\": " << r.ratio()
       << ", \"steady_state_allocs\": " << r.allocs << "}"
       << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header(smoke ? "VM hot path (smoke)"
                     : "VM hot path: field, array and invoke, hook-free vs "
                       "monitored");

  const std::size_t field_ops = smoke ? 200'000 : 2'000'000;
  const std::size_t array_ops = smoke ? 200'000 : 2'000'000;
  const std::size_t invoke_ops = smoke ? 50'000 : 500'000;
  const int repeats = smoke ? 3 : 7;

  const LoopResult field = run_field(field_ops, repeats);
  print_loop("field access, get+put pairs", field);
  const LoopResult array = run_array(array_ops, repeats);
  print_loop("int array, get+put pairs", array);
  const LoopResult invoke = run_invoke(invoke_ops, repeats);
  print_loop("invoke, cached call site", invoke);

  bool ok = true;
  for (const auto& [name, r] : {std::pair{"field", &field},
                                std::pair{"array", &array},
                                std::pair{"invoke", &invoke}}) {
    if (r->allocs != 0) {
      std::printf("  FAIL: %llu allocations in the %s loops\n",
                  static_cast<unsigned long long>(r->allocs), name);
      ok = false;
    }
  }
  if (!smoke) {
    for (const auto& [name, r] :
         {std::pair{"field", &field}, std::pair{"invoke", &invoke}}) {
      if (r->ratio() > kMaxMonitoredRatio) {
        std::printf("  FAIL: monitored %s path %.2fx the hook-free one "
                    "(limit %.1fx)\n",
                    name, r->ratio(), kMaxMonitoredRatio);
        ok = false;
      }
    }

    std::ofstream json("BENCH_vm.json");
    json << "{\n" << wall_clock_provenance_json(AIDE_BUILD_TYPE);
    json << "  \"max_monitored_ratio\": " << kMaxMonitoredRatio << ",\n";
    write_loop(json, "field_access", field, false);
    write_loop(json, "array_access", array, false);
    write_loop(json, "invoke", invoke, false);
    json << "  \"gate_ok\": " << (ok ? "true" : "false") << "\n}\n";
    std::printf("\n  wrote BENCH_vm.json\n");
  }

  std::printf("  %s\n", ok ? "OK" : "GATE FAILED");
  return ok ? 0 : 1;
}
