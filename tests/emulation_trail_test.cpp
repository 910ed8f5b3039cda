// Emulation outcomes pinned byte-for-byte.
//
// The emulator suite checks properties of trace replay: offloading
// stretches time and the enhancements cut remote calls. This test pins the
// exact outcome of every emulation path instead. It records the five apps at
// reduced scale and prints one line per case, holding every EmulationResult
// field and, for every offload and declined evaluation, the decision with its
// sorted selected component keys. The cases are the Figure 7 policy corners,
// Figure 10's Native x Array grid for all five apps, a manual offload and
// repeated repartitioning under the Array enhancement (pruning renumbers the
// graph's nodes after a placement exists). Any change to placement, the
// monitor's graph or the partitioner's choice moves a number here. Regenerate
// tests/golden/emulation_trails.txt with AIDE_UPDATE_GOLDEN=1 only after an
// intended change to emulated outcomes. Three differentials ride along: the
// decision horizon changes no result, neither do the block summaries charged
// past it, and a recorded trace replays the same after a CSV round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "bench/forced_offload.hpp"
#include "emul/emulator.hpp"
#include "emul/recorder.hpp"
#include "tests/test_util.hpp"
#include "vm/vm.hpp"

namespace aide::emul {
namespace {

struct Recorded {
  std::string name;
  std::shared_ptr<vm::ClassRegistry> registry;
  Trace trace;
  // Peak of the trace's live bytes: the memory cases size the emulated heap
  // from it, since the paper's 6 MB never fills at this scale.
  std::int64_t peak_live = 0;
};

// Records on a prototype VM with the figure harnesses' GC-report settings.
// Its heap is scaled down with the apps (4 MB, not 64), so every app still
// reports GCs densely.
Recorded record(const std::string& name) {
  Recorded out;
  out.name = name;
  out.registry = std::make_shared<vm::ClassRegistry>();
  const apps::AppInfo& app = apps::app_by_name(name);
  app.register_classes(*out.registry);
  SimClock clock;
  vm::VmConfig cfg;
  cfg.name = "prototype";
  cfg.heap_capacity = std::int64_t{4} << 20;
  cfg.gc_alloc_count_threshold = 1024;
  cfg.gc_alloc_bytes_divisor = 256;
  vm::Vm vm(cfg, out.registry, clock);
  TraceRecorder recorder;
  vm.add_hooks(&recorder);
  (void)app.run(vm, bench::small_app_params());
  out.trace = recorder.take();
  std::int64_t live = 0;
  for (const TraceEvent& e : out.trace.events) {
    if (e.type == TraceEventType::alloc) live += e.bytes;
    if (e.type == TraceEventType::free_obj) live -= e.bytes;
    if (e.type == TraceEventType::resize) live += e.aux1;
    out.peak_live = std::max(out.peak_live, live);
  }
  return out;
}

// The five apps in paper order, recorded once.
const std::vector<Recorded>& recorded() {
  static const std::vector<Recorded> apps = [] {
    std::vector<Recorded> v;
    for (const apps::AppInfo& app : apps::all_apps()) {
      v.push_back(record(app.name));
    }
    return v;
  }();
  return apps;
}

const Recorded& app(const char* name) {
  for (const Recorded& r : recorded()) {
    if (r.name == name) return r;
  }
  ADD_FAILURE() << "no recorded app " << name;
  return recorded().front();
}

// bench::emulate_memory's configuration on a heap 1/64 above the trace's
// peak, so the trigger thresholds bite.
EmulatorConfig memory_config(const Recorded& r, double threshold,
                             int tolerance, double min_free) {
  EmulatorConfig cfg;
  cfg.trigger_mode = TriggerMode::memory_gc;
  cfg.trigger.low_free_threshold = threshold;
  cfg.trigger.consecutive_reports = tolerance;
  cfg.min_free_fraction = min_free;
  cfg.heap_capacity = r.peak_live + r.peak_live / 64;
  cfg.objective = partition::Objective::free_memory;
  cfg.surrogate_speedup = 1.0;
  cfg.gc_pressure_cost_ns_per_live_byte = 100.0;
  return cfg;
}

// bench::emulate_cpu's configuration.
EmulatorConfig cpu_config(bool native, bool array) {
  EmulatorConfig cfg;
  cfg.trigger_mode = TriggerMode::trace_fraction;
  cfg.eval_at_fraction = 0.25;
  cfg.objective = partition::Objective::speed_up;
  cfg.surrogate_speedup = 3.5;
  cfg.heap_capacity = std::int64_t{64} << 20;
  cfg.stateless_natives_local = native;
  cfg.arrays_as_objects = array;
  return cfg;
}

void put(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

void put_keys(std::string& out,
              const std::unordered_set<graph::ComponentKey>& keys) {
  std::vector<graph::ComponentKey> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  out += "[";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    put(out, i == 0 ? "%" PRIu32 : " %" PRIu32, sorted[i].cls.value());
    if (sorted[i].is_object_granularity()) {
      put(out, "#%" PRIu64, sorted[i].object.value());
    }
  }
  out += "]";
}

void put_decision(std::string& out, const partition::PartitionDecision& d) {
  const graph::Candidate& c = d.selected;
  put(out, "decision=%d/%zu/%zu bw=%.9g orig=%" PRId64 " off=%" PRId64
           " mincut=%zu/%zu hints=%d",
      d.offload ? 1 : 0, d.candidates_total, d.candidates_feasible,
      d.predicted_bandwidth_bps, d.predicted_original_time,
      d.predicted_offloaded_time, d.mincut_nodes, d.mincut_edges,
      d.hints_applied ? 1 : 0);
  put(out, " cut=%.9g/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRId64
           "/%" PRId64 " selected=",
      c.cut_weight, c.cut_bytes, c.cut_invocations, c.cut_accesses,
      c.offload_mem_bytes, c.offload_self_time);
  put_keys(out, c.offload);
}

std::string result_line(const std::string& name, const EmulationResult& r) {
  std::string out = name;
  put(out, " base=%" PRId64 " emulated=%" PRId64 " comm=%" PRId64
           " migration=%" PRId64 " gc=%" PRId64,
      r.base_time, r.emulated_time, r.comm_time, r.migration_time,
      r.gc_pressure_time);
  put(out, " invokes=%" PRIu64 "/%" PRIu64 "/%" PRIu64 " accesses=%" PRIu64
           "/%" PRIu64 " remote_bytes=%" PRIu64 " peak=%" PRId64,
      r.total_invocations, r.remote_invocations, r.remote_native_invocations,
      r.total_accesses, r.remote_accesses, r.remote_bytes,
      r.peak_client_live);
  out += " offloads=";
  for (const OffloadSnapshot& o : r.offloads) {
    put(out, "{at=%" PRId64 " moved=%" PRIu64 " components=%zu ", o.at,
        o.migrated_bytes, o.components);
    put_decision(out, o.decision);
    out += "}";
  }
  out += " declined=";
  for (const partition::PartitionDecision& d : r.declined) {
    out += "{";
    put_decision(out, d);
    out += "}";
  }
  out += "\n";
  return out;
}

std::string run_line(const std::string& name, const Recorded& r,
                     const EmulatorConfig& cfg) {
  Emulator emu(r.registry, cfg);
  return result_line(name, emu.run(r.trace));
}

TEST(EmulationTrailTest, EveryPathMatchesGolden) {
  std::string out;

  // Figure 7: the corners of the trigger x tolerance x min-free sweep.
  for (const char* name : {"JavaNote", "Dia", "Biomer"}) {
    for (const double threshold : {0.02, 0.50}) {
      for (const int tolerance : {1, 3}) {
        for (const double min_free : {0.10, 0.80}) {
          char label[96];
          std::snprintf(label, sizeof(label), "fig7 %s %.2f x%d %.2f", name,
                        threshold, tolerance, min_free);
          out += run_line(label, app(name),
                          memory_config(app(name), threshold, tolerance,
                                        min_free));
        }
      }
    }
  }

  // Figure 10: Native x Array for every app.
  for (const Recorded& r : recorded()) {
    for (const bool native : {false, true}) {
      for (const bool array : {false, true}) {
        out += run_line("fig10 " + r.name + (native ? " native" : " -") +
                            (array ? " array" : " -"),
                        r, cpu_config(native, array));
      }
    }
  }

  // Figure 10's hand-picked Biomer placement.
  {
    EmulatorConfig cfg = cpu_config(true, true);
    cfg.eval_at_fraction = 0.10;
    cfg.manual_offload_classes = {"Bio.ForceField", "Bio.Atom",
                                  "Bio.Molecule",   "Bio.Bond",
                                  "Bio.Analyzer",   "Object[]",
                                  "int[]"};
    out += run_line("manual Biomer", app("Biomer"), cfg);
  }

  // Repeated repartitioning under the Array enhancement on a heap below
  // Biomer's peak, so the trigger fires three times. No app frees a promoted
  // array, so the trace gains deaths: right after the first offload, every
  // other promoted array allocated so far is freed. The next evaluation
  // prunes those components and renumbers the survivors while the first
  // offload's placement is in force.
  {
    const Recorded& biomer = app("Biomer");
    EmulatorConfig cfg = memory_config(biomer, 0.50, 1, 0.10);
    cfg.heap_capacity = biomer.peak_live * 3 / 4;
    cfg.arrays_as_objects = true;
    cfg.max_offloads = 3;
    Emulator probe(biomer.registry, cfg);
    const EmulationResult first = probe.run(biomer.trace);
    ASSERT_FALSE(first.offloads.empty());

    Trace trace;
    std::vector<TraceEvent> arrays;  // promoted allocations, in trace order
    bool freed = false;
    for (const TraceEvent& e : biomer.trace.events) {
      trace.events.push_back(e);
      if (e.type == TraceEventType::alloc &&
          e.cls_a == biomer.registry->int_array_class() &&
          e.bytes >= cfg.min_array_bytes) {
        arrays.push_back(e);
      }
      if (!freed && e.type == TraceEventType::gc &&
          e.t >= first.offloads.front().at) {
        freed = true;
        for (std::size_t i = 0; i < arrays.size(); i += 2) {
          TraceEvent death = arrays[i];
          death.type = TraceEventType::free_obj;
          trace.events.push_back(death);
        }
      }
    }
    ASSERT_TRUE(freed);

    Emulator emu(biomer.registry, cfg);
    const EmulationResult r = emu.run(trace);
    ASSERT_GE(r.offloads.size(), 2u);
    // A freed array the first offload placed is gone from the final graph,
    // and an array interned after it survives: a later evaluation pruned
    // and renumbered with the placement in force.
    const graph::ExecGraph& g = emu.last_monitor().graph();
    const auto& placed = r.offloads.front().decision.selected.offload;
    std::size_t first_pruned = arrays.size();
    for (std::size_t i = 0; i < arrays.size(); i += 2) {
      const graph::ComponentKey key{arrays[i].cls_a, arrays[i].obj_a};
      if (placed.contains(key) && g.find_node(key) == nullptr) {
        first_pruned = i;
        break;
      }
    }
    ASSERT_LT(first_pruned, arrays.size());
    bool later_survives = false;
    for (std::size_t i = first_pruned + 1; i < arrays.size(); i += 2) {
      if (g.find_node({arrays[i].cls_a, arrays[i].obj_a}) != nullptr) {
        later_survives = true;
      }
    }
    EXPECT_TRUE(later_survives);
    out += result_line("repartition Biomer array x3", r);
  }

  test::check_golden("emulation_trails.txt", out);
}

// The decision horizon on recorded traces. A max_offloads = 0 run is past
// it from the first event and feeds the monitor no interaction; a run whose
// evaluation never comes feeds every event. Every result field matches. A
// trace_fraction run stops feeding right after its one evaluation.
TEST(EmulationTrailTest, HorizonChangesNoResult) {
  for (const Recorded& r : recorded()) {
    EmulatorConfig never_gc = memory_config(r, 0.50, 1, 0.10);
    never_gc.trigger.consecutive_reports = std::numeric_limits<int>::max();
    for (const bool array : {false, true}) {
      EmulatorConfig never_fraction = cpu_config(false, array);
      never_fraction.eval_at_fraction = 2.0;
      never_gc.arrays_as_objects = array;
      for (const EmulatorConfig& never : {never_gc, never_fraction}) {
        EmulatorConfig none = never;
        none.max_offloads = 0;
        Emulator a(r.registry, none);
        Emulator b(r.registry, never);
        const std::string label = r.name + (array ? " array" : " -");
        EXPECT_EQ(result_line(label, a.run(r.trace)),
                  result_line(label, b.run(r.trace)));
        EXPECT_EQ(a.last_monitor().counters().interaction_events(), 0u)
            << label;
        EXPECT_EQ(a.last_monitor().graph().edge_count(), 0u) << label;
        EXPECT_EQ(b.last_monitor().counters().interaction_events(),
                  test::interactions_in(r.trace, r.trace.size()))
            << label;
      }

      const EmulatorConfig cfg = cpu_config(false, array);
      Emulator emu(r.registry, cfg);
      const EmulationResult result = emu.run(r.trace);
      EXPECT_EQ(result.offloads.size() + result.declined.size(), 1u);
      const auto eval_ix = static_cast<std::size_t>(
          static_cast<double>(r.trace.size()) * cfg.eval_at_fraction);
      EXPECT_EQ(emu.last_monitor().counters().interaction_events(),
                test::interactions_in(r.trace, eval_ix + 1))
          << r.name;
    }
  }
}

// Past the horizon a class-granularity replay charges each whole block from
// its summary. Under the Array enhancement with no array large enough to be
// its own component, every component is still a class node, but the replay
// charges event by event. Every result field must match, over the Figure 7
// corners with 0, 1 and 2 offloads and trace_fraction evaluations from the
// first event to 90 % of the trace, each with and without Native.
TEST(EmulationTrailTest, BlockSummariesChangeNoResult) {
  for (const Recorded& r : recorded()) {
    ASSERT_GT(r.trace.size(), 2 * kBlockEvents) << r.name;
    std::vector<std::pair<std::string, EmulatorConfig>> cases;
    for (const double threshold : {0.02, 0.50}) {
      for (const int tolerance : {1, 3}) {
        for (const double min_free : {0.10, 0.80}) {
          for (const std::size_t offloads : {0u, 1u, 2u}) {
            EmulatorConfig cfg =
                memory_config(r, threshold, tolerance, min_free);
            cfg.max_offloads = offloads;
            char label[96];
            std::snprintf(label, sizeof(label), "%s %.2f x%d %.2f max%zu",
                          r.name.c_str(), threshold, tolerance, min_free,
                          offloads);
            cases.emplace_back(label, cfg);
          }
        }
      }
    }
    for (const double fraction : {0.0, 0.10, 0.25, 0.90}) {
      EmulatorConfig cfg = cpu_config(false, false);
      cfg.eval_at_fraction = fraction;
      cases.emplace_back(r.name + " fraction " + std::to_string(fraction),
                         cfg);
    }
    for (auto& [label, cfg] : cases) {
      for (const bool native : {false, true}) {
        cfg.stateless_natives_local = native;
        EmulatorConfig per_event = cfg;
        per_event.arrays_as_objects = true;
        per_event.min_array_bytes = std::numeric_limits<std::int64_t>::max();
        Emulator summary(r.registry, cfg);
        Emulator each(r.registry, per_event);
        const std::string name = label + (native ? " native" : " -");
        EXPECT_EQ(result_line(name, summary.run(r.trace)),
                  result_line(name, each.run(r.trace)));
      }
    }
  }
}

// A recorded trace saved as CSV and loaded back is the same trace: every
// field of every event, and every emulation result. JavaNote's trace has
// resizes and GC reports, so the copy's aux list, the replay's aux cursor and
// (under the Array enhancement) its objects column are all on the path.
TEST(EmulationTrailTest, CsvRoundTripReplaysIdentically) {
  const Recorded& r = app("JavaNote");
  std::stringstream csv;
  r.trace.save_csv(csv);
  const Trace copy = Trace::load_csv(csv);

  ASSERT_EQ(copy.size(), r.trace.size());
  std::size_t resizes = 0, gcs = 0, i = 0;
  auto orig = r.trace.events.begin();
  for (const TraceEvent& e : copy.events) {
    ASSERT_TRUE(e == *orig) << "event " << i;
    resizes += e.type == TraceEventType::resize && e.aux1 != 0 ? 1 : 0;
    gcs += e.type == TraceEventType::gc ? 1 : 0;
    ++orig;
    ++i;
  }
  EXPECT_GT(resizes, 0u);
  EXPECT_GT(gcs, 0u);

  // Replays both traces under cfg and compares every result field.
  const auto replay_both = [&](const EmulatorConfig& cfg) {
    Emulator a(r.registry, cfg);
    Emulator b(r.registry, cfg);
    EmulationResult original = a.run(r.trace);
    EXPECT_FALSE(original.offloads.empty());
    EXPECT_EQ(result_line("copy", b.run(copy)),
              result_line("copy", original));
    return original;
  };
  // JavaNote declines to offload for speed, so the trace_fraction run places
  // by hand the classes the memory policy offloads: placement then decides
  // remote interactions past the evaluation in both modes.
  for (const bool array : {false, true}) {
    EmulatorConfig memory = memory_config(r, 0.02, 1, 0.10);
    memory.arrays_as_objects = array;
    const EmulationResult by_memory = replay_both(memory);
    ASSERT_FALSE(by_memory.offloads.empty());
    EmulatorConfig fraction = cpu_config(false, array);
    for (const graph::ComponentKey& key :
         by_memory.offloads.front().decision.selected.offload) {
      fraction.manual_offload_classes.push_back(
          r.registry->get(key.cls).name);
    }
    (void)replay_both(fraction);
  }
}

}  // namespace
}  // namespace aide::emul
