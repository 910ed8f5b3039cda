// Hot-path benchmark: monitor event throughput and partitioning wall time.
//
// Measures the two costs the paper's continuous-monitoring premise depends
// on (section 5.1, Figure 6, Table 2):
//
//  1. events/sec through the ExecutionMonitor hooks — the new dense-index +
//     edge-slot-cache fast path vs an in-binary replica of the previous
//     pipeline (ComponentKey-keyed unordered_maps, three hash probes per
//     interaction event), fed the identical event stream;
//
//  2. modified MINCUT (incremental streaming visitor) and Stoer-Wagner
//     (adjacency lists) wall time at 50/200/800 components vs the retained
//     dense-matrix reference implementations (tests/mincut_reference).
//
// Baselines are measured live in the same binary, so speedups are
// machine-independent ratios. Full runs write BENCH_hotpath.json, naming
// the clock, build type and compiler, for cross-PR comparison; `--smoke` runs
// a quick subset (CI) without writing.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "graph/mincut.hpp"
#include "tests/mincut_reference.hpp"
#include "monitor/monitor.hpp"

using namespace aide;
using namespace aide::bench;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- part 1: monitor event throughput --------------------------------------

// A pre-generated interaction event stream (bursty pair locality, as real
// call patterns exhibit), replayed identically into both monitor pipelines.
// Bursts are single-kind by construction, so the interleaving is stored as
// run-length (count, kind) records: the replay loop then costs two
// predictable sequential loads per event instead of a per-event bit probe,
// keeping harness overhead out of the pipeline measurement.
struct EventStream {
  struct Run {
    std::uint32_t count = 0;
    bool invoke = false;
  };
  std::vector<vm::InvokeEvent> invokes;
  std::vector<vm::AccessEvent> accesses;
  std::vector<Run> runs;
  std::size_t events = 0;
};

EventStream make_stream(std::size_t n_events, std::size_t n_classes,
                        std::uint64_t seed) {
  Rng rng(seed);
  EventStream s;
  while (s.events < n_events) {
    const auto from = ClassId{static_cast<std::uint32_t>(
        rng.next_below(n_classes))};
    const auto to = ClassId{static_cast<std::uint32_t>(
        rng.next_below(n_classes))};
    const bool invoke = rng.next_below(100) < 70;
    const std::size_t burst =
        std::min<std::size_t>(1 + rng.next_below(16), n_events - s.events);
    for (std::size_t b = 0; b < burst; ++b) {
      if (invoke) {
        vm::InvokeEvent ev;
        ev.caller_cls = from;
        ev.callee_cls = to;
        ev.bytes = rng.next_below(256);
        s.invokes.push_back(ev);
      } else {
        vm::AccessEvent ev;
        ev.from_cls = from;
        ev.to_cls = to;
        ev.bytes = rng.next_below(64);
        s.accesses.push_back(ev);
      }
    }
    s.runs.push_back({static_cast<std::uint32_t>(burst), invoke});
    s.events += burst;
  }
  return s;
}

// Replays the stream directly into a concrete monitor, so the compiler can
// inline the hook bodies into the dispatch loop — this measures the hook code
// itself. (Production dispatches through VmHooks*; that virtual-call constant
// is identical for both pipelines and is excluded from both.)
template <typename Hooks>
void replay(const EventStream& stream, Hooks& hooks) {
  std::size_t ii = 0, ai = 0;
  for (const EventStream::Run run : stream.runs) {
    if (run.invoke) {
      for (std::uint32_t k = 0; k < run.count; ++k) {
        hooks.on_invoke(stream.invokes[ii++]);
      }
    } else {
      for (std::uint32_t k = 0; k < run.count; ++k) {
        hooks.on_access(stream.accesses[ai++]);
      }
    }
  }
}

// Replica of the pre-optimization monitor->graph pipeline: every interaction
// event costs two ComponentKey-keyed node-map probes plus one EdgeKey-keyed
// edge-map probe. Kept minimal but probe-for-probe faithful.
struct LegacyGraph {
  std::unordered_map<graph::ComponentKey, graph::NodeInfo> nodes;
  std::unordered_map<graph::EdgeKey, graph::EdgeInfo> edges;

  void record_interaction(const graph::ComponentKey& from,
                          const graph::ComponentKey& to, bool is_invocation,
                          std::uint64_t bytes) {
    if (from == to) return;
    nodes.try_emplace(from);
    nodes.try_emplace(to);
    auto& e = edges[graph::ExecGraph::make_edge_key(from, to)];
    if (is_invocation) {
      e.invocations += 1;
    } else {
      e.accesses += 1;
    }
    e.bytes += bytes;
  }

  void set_pinned(const graph::ComponentKey& key, bool pinned) {
    nodes[key].pinned = pinned;
  }
};

class LegacyMonitor : public vm::VmHooks {
 public:
  explicit LegacyMonitor(std::shared_ptr<const vm::ClassRegistry> registry)
      : registry_(std::move(registry)) {}

  void on_invoke(const vm::InvokeEvent& ev) override {
    ++invoke_events_;
    if (ev.remote) ++remote_invocations_;
    const auto from = ensure_component(ev.caller_cls, ev.caller_obj);
    const auto to = ensure_component(ev.callee_cls, ev.callee_obj);
    graph_.record_interaction(from, to, true, ev.bytes);
  }

  void on_access(const vm::AccessEvent& ev) override {
    ++access_events_;
    if (ev.remote) ++remote_accesses_;
    const auto from = ensure_component(ev.from_cls, ev.from_obj);
    const auto to = ensure_component(ev.to_cls, ev.to_obj);
    graph_.record_interaction(from, to, false, ev.bytes);
  }

  [[nodiscard]] const LegacyGraph& graph() const { return graph_; }

 private:
  // Pre-optimization component_of: the Array-enhancement map consultation,
  // off in the default configuration exactly as in the old monitor.
  graph::ComponentKey component_of(ClassId cls, ObjectId obj) const {
    if (arrays_as_objects_ && obj.valid()) {
      const auto it = object_component_.find(obj);
      if (it != object_component_.end()) return it->second;
    }
    return graph::ComponentKey{cls};
  }

  graph::ComponentKey ensure_component(ClassId cls, ObjectId obj) {
    const graph::ComponentKey key = component_of(cls, obj);
    if (cls.value() >= class_seen_.size()) {
      class_seen_.resize(registry_->size(), false);
    }
    if (!class_seen_[cls.value()]) {
      class_seen_[cls.value()] = true;
      graph_.set_pinned(graph::ComponentKey{cls},
                        registry_->get(cls).is_pinned());
    }
    return key;
  }

  std::shared_ptr<const vm::ClassRegistry> registry_;
  LegacyGraph graph_;
  std::unordered_map<ObjectId, graph::ComponentKey> object_component_;
  std::vector<bool> class_seen_;
  bool arrays_as_objects_ = false;
  std::uint64_t invoke_events_ = 0;
  std::uint64_t access_events_ = 0;
  std::uint64_t remote_invocations_ = 0;
  std::uint64_t remote_accesses_ = 0;
};

struct MonitorResult {
  std::size_t events = 0;
  double new_events_per_sec = 0;
  double legacy_events_per_sec = 0;
  double speedup = 0;
};

MonitorResult run_monitor_part(std::size_t n_events, int repeats) {
  constexpr std::size_t kClasses = 120;
  auto registry = std::make_shared<vm::ClassRegistry>();
  for (std::size_t i = registry->size(); i < kClasses; ++i) {
    registry->register_class(vm::ClassBuilder("C" + std::to_string(i)).build());
  }
  const EventStream stream = make_stream(n_events, kClasses, 0xA1DE);

  MonitorResult out;
  out.events = stream.events;

  // Each pipeline keeps ONE warm monitor and replays the stream repeatedly
  // (min-of-repeats): the first replay interns nodes and edge slots, the rest
  // measure the steady-state hot path — the regime continuous monitoring
  // lives in. Counters accumulate across replays; edge counts are replay
  // invariant, so the cross-pipeline check still holds.
  double new_best = 1e100;
  double legacy_best = 1e100;
  std::size_t new_edges = 0, legacy_edges = 0;
  {
    monitor::ExecutionMonitor mon(registry);
    for (int r = 0; r < repeats; ++r) {
      const double t0 = now_seconds();
      replay(stream, mon);
      new_best = std::min(new_best, now_seconds() - t0);
    }
    new_edges = mon.graph().edge_count();
  }
  {
    LegacyMonitor mon(registry);
    for (int r = 0; r < repeats; ++r) {
      const double t0 = now_seconds();
      replay(stream, mon);
      legacy_best = std::min(legacy_best, now_seconds() - t0);
    }
    legacy_edges = mon.graph().edges.size();
  }
  if (new_edges != legacy_edges) {
    std::fprintf(stderr, "FATAL: pipelines disagree (%zu vs %zu edges)\n",
                 new_edges, legacy_edges);
    std::exit(1);
  }

  const auto n = static_cast<double>(out.events);
  out.new_events_per_sec = n / new_best;
  out.legacy_events_per_sec = n / legacy_best;
  out.speedup = out.new_events_per_sec / out.legacy_events_per_sec;
  return out;
}

// --- part 2: partitioning wall time -----------------------------------------

graph::ExecGraph random_graph(std::size_t n, double avg_degree,
                              std::uint64_t seed) {
  Rng rng(seed);
  graph::ExecGraph g;
  std::vector<graph::ComponentKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const graph::ComponentKey key{ClassId{static_cast<std::uint32_t>(i)}};
    keys.push_back(key);
    auto& node = g.node(key);
    node.mem_bytes = static_cast<std::int64_t>(rng.next_below(1 << 20));
    node.exec_self_time = static_cast<SimDuration>(rng.next_below(1'000'000));
    if (rng.next_below(10) == 0) node.pinned = true;
  }
  const double edge_prob = avg_degree / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.next_double() >= edge_prob) continue;
      graph::EdgeInfo info;
      info.invocations = rng.next_below(20) + 1;
      info.accesses = rng.next_below(30);
      info.bytes = rng.next_below(10000);
      g.set_edge(keys[i], keys[j], info);
    }
  }
  return g;
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

struct CutResult {
  std::size_t components = 0;
  std::size_t edges = 0;
  double modified_new_ms = 0;
  double modified_ref_ms = 0;
  double modified_speedup = 0;
  double sw_new_ms = 0;
  double sw_ref_ms = 0;
  double sw_speedup = 0;
  std::size_t storage_model_bytes = 0;
  std::size_t storage_actual_bytes = 0;
};

CutResult run_cut_part(std::size_t n, int repeats) {
  const graph::ExecGraph g = random_graph(n, /*avg_degree=*/8.0, 0xC0FFEE + n);
  const graph::EdgeWeightFn weight;

  CutResult out;
  out.components = g.node_count();
  out.edges = g.edge_count();
  out.storage_model_bytes = g.storage_bytes();
  out.storage_actual_bytes = g.storage_bytes_actual();

  // The optimized pipeline consumes the series through the streaming visitor
  // (decide_partitioning's shape): one running candidate, no per-candidate
  // copies. The reference materializes a snapshot per candidate, as the
  // pipeline did before.
  double sink = 0;
  std::size_t new_cands = 0, ref_cands = 0;
  out.modified_new_ms = time_best_ms(repeats, [&] {
    new_cands = 0;
    graph::modified_mincut_visit(g, weight, [&](const graph::Candidate& c) {
      sink += c.cut_weight;
      ++new_cands;
    });
  });
  out.modified_ref_ms = time_best_ms(repeats, [&] {
    const auto cands = graph::reference::modified_mincut(g, weight);
    ref_cands = cands.size();
    for (const auto& c : cands) sink += c.cut_weight;
  });
  if (new_cands != ref_cands) {
    std::fprintf(stderr, "FATAL: candidate counts disagree (%zu vs %zu)\n",
                 new_cands, ref_cands);
    std::exit(1);
  }
  out.modified_speedup = out.modified_ref_ms / out.modified_new_ms;

  double w_new = 0, w_ref = 0;
  out.sw_new_ms = time_best_ms(repeats, [&] {
    w_new = graph::stoer_wagner_min_cut(g, weight).weight;
  });
  out.sw_ref_ms = time_best_ms(repeats, [&] {
    w_ref = graph::reference::stoer_wagner_min_cut(g, weight).weight;
  });
  if (w_new != w_ref) {
    std::fprintf(stderr, "FATAL: SW weights disagree (%f vs %f)\n", w_new,
                 w_ref);
    std::exit(1);
  }
  out.sw_speedup = out.sw_ref_ms / out.sw_new_ms;
  if (sink == -1.0) std::printf("%f", sink);  // defeat dead-code elimination
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header(smoke ? "Graph hot path (smoke)"
                     : "Graph hot path: monitor events/sec + MINCUT wall time");

  // The stream is sized to stay cache-resident: in production events are
  // produced hot at the instrumentation site, not streamed from DRAM, so a
  // DRAM-bound harness would understate both pipelines equally and compress
  // their ratio. Repeats make up the measured volume.
  const std::size_t n_events = smoke ? 25'000 : 25'000;
  const int mon_repeats = smoke ? 40 : 400;
  const MonitorResult mon = run_monitor_part(n_events, mon_repeats);
  std::printf("  monitor throughput (%zu interaction events):\n", mon.events);
  std::printf("    dense fast path : %12.0f events/s\n",
              mon.new_events_per_sec);
  std::printf("    legacy hash path: %12.0f events/s\n",
              mon.legacy_events_per_sec);
  std::printf("    speedup         : %.2fx\n", mon.speedup);

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{50, 200}
            : std::vector<std::size_t>{50, 200, 800};
  const int cut_repeats = smoke ? 3 : 7;
  std::vector<CutResult> cuts;
  std::printf(
      "\n  %-6s | %-6s | modified MINCUT new/ref (ms)  | Stoer-Wagner "
      "new/ref (ms)   | storage model/actual (KB)\n",
      "comps", "edges");
  for (const std::size_t n : sizes) {
    const CutResult r = run_cut_part(n, cut_repeats);
    cuts.push_back(r);
    std::printf(
        "  %-6zu | %-6zu | %8.3f / %8.3f (%5.1fx) | %8.3f / %8.3f (%5.1fx) | "
        "%zu / %zu\n",
        r.components, r.edges, r.modified_new_ms, r.modified_ref_ms,
        r.modified_speedup, r.sw_new_ms, r.sw_ref_ms, r.sw_speedup,
        r.storage_model_bytes / 1024, r.storage_actual_bytes / 1024);
  }

  bool ok = true;
  if (!smoke) {
    // Acceptance gates: >=5x monitor throughput, >=10x modified MINCUT at
    // 200+ components.
    if (mon.speedup < 5.0) {
      std::printf("  WARN: monitor speedup %.2fx below 5x gate\n",
                  mon.speedup);
      ok = false;
    }
    for (const auto& r : cuts) {
      if (r.components >= 200 && r.modified_speedup < 10.0) {
        std::printf("  WARN: modified MINCUT speedup %.1fx at %zu below 10x\n",
                    r.modified_speedup, r.components);
        ok = false;
      }
    }

    std::ofstream json("BENCH_hotpath.json");
    json << "{\n" << wall_clock_provenance_json(AIDE_BUILD_TYPE);
    json << "  \"monitor\": {\n";
    json << "    \"events\": " << mon.events << ",\n";
    json << "    \"new_events_per_sec\": " << std::llround(
        mon.new_events_per_sec) << ",\n";
    json << "    \"legacy_events_per_sec\": " << std::llround(
        mon.legacy_events_per_sec) << ",\n";
    json << "    \"speedup\": " << mon.speedup << "\n  },\n";
    json << "  \"mincut\": [\n";
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      const auto& r = cuts[i];
      json << "    {\"components\": " << r.components
           << ", \"edges\": " << r.edges
           << ", \"modified_new_ms\": " << r.modified_new_ms
           << ", \"modified_ref_ms\": " << r.modified_ref_ms
           << ", \"modified_speedup\": " << r.modified_speedup
           << ", \"sw_new_ms\": " << r.sw_new_ms
           << ", \"sw_ref_ms\": " << r.sw_ref_ms
           << ", \"sw_speedup\": " << r.sw_speedup
           << ", \"storage_model_bytes\": " << r.storage_model_bytes
           << ", \"storage_actual_bytes\": " << r.storage_actual_bytes << "}"
           << (i + 1 < cuts.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\n  wrote BENCH_hotpath.json\n");
  }

  std::printf("  %s\n", ok ? "OK" : "BELOW ACCEPTANCE GATES");
  return 0;
}
