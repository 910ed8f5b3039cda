// perfbench: the outside-in wall-clock benchmark of the AIDE platform.
//
//   perfbench --workload paper_apps|pool_sessions|trace_replay --seed N
//             --seconds S --trace 0|1 [--reference FILE] [--commit SHA]
//             [--spans-out FILE] [--setup-reps N] [--emit-reference]
//
// Prints provenance, a table of every metric with its unit, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "workload.hpp"

namespace {

using namespace perfbench;

// Every per-layer metric a traced run reports, on every workload; a layer a
// workload does not exercise reads 0, a layer whose probe had to be dropped
// reads -1 (unmeasured).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"vm.self_wall_ms", "ms"},
    {"vm.ops", "count"},
    {"vm.ns_per_op", "ns"},
    {"vm.remote_op_share", "ratio"},
    {"vm.allocations", "count"},
    {"vm.gc_cycles", "count"},
    {"monitor.self_wall_ms", "ms"},
    {"monitor.events", "count"},
    {"monitor.ns_per_event", "ns"},
    {"monitor.graph_nodes", "count"},
    {"monitor.graph_edges", "count"},
    {"partition.decide_wall_ms", "ms"},
    {"partition.evaluations", "count"},
    {"partition.accept_ratio", "ratio"},
    {"partition.mincut_nodes_max", "count"},
    {"rpc.self_wall_ms", "ms"},
    {"rpc.calls", "count"},
    {"rpc.ns_per_op", "ns"},
    {"rpc.frames", "count"},
    {"rpc.ops", "count"},
    {"rpc.bytes", "bytes"},
    {"rpc.ops_per_frame", "ratio"},
    {"rpc.writethrough_share", "ratio"},
    {"rpc.readahead_hit_ratio", "ratio"},
    {"rpc.retries", "count"},
    {"rpc.migrate_wall_ms", "ms"},
    {"netsim.messages", "count"},
    {"netsim.bytes", "bytes"},
    {"platform.ctor_wall_ms", "ms"},
    {"platform.offload_wall_ms", "ms"},
    {"platform.dispatch_self_wall_ms", "ms"},
    {"platform.turns", "count"},
    {"platform.rounds", "count"},
    {"analysis.gates_wall_ms", "ms"},
    {"emul.self_wall_ms", "ms"},
    {"emul.events", "count"},
    {"emul.record_wall_ms", "ms"},
    {"harness.self_wall_ms", "ms"},
    {"trace.root_wall_ms", "ms"},
    {"trace.self_sum_wall_ms", "ms"},
    {"trace.corrected_sum_wall_ms", "ms"},
    {"trace.untraced_pass_wall_ms", "ms"},
    {"trace.span_cost_ns", "ns"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.passes", "count"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_apps|pool_sessions|"
               "trace_replay --seed N --seconds S --trace 0|1\n"
               "       [--reference FILE] [--commit SHA] [--spans-out FILE]\n"
               "       [--setup-reps N] [--emit-reference]\n");
}

bool parse(int argc, char** argv, Options& opt, std::string& commit) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--reference") {
      opt.reference_path = value();
    } else if (a == "--spans-out") {
      opt.spans_out = value();
    } else if (a == "--setup-reps") {
      opt.setup_reps = std::stoi(value());
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--emit-reference") {
      opt.emit_reference = true;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event
// per span, with its id and parent id as arguments.
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream f(path);
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%.*s\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                  "\"parent\": %u}}%s\n",
                  static_cast<int>(layer_name(s.layer).size()),
                  layer_name(s.layer).data(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                  s.parent, i + 1 < spans.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  try {
    if (!parse(argc, argv, opt, commit)) {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    usage();
    return 2;
  }

  // setup_s is an end-to-end metric only; a traced run sets up once.
  if (opt.trace) opt.setup_reps = 1;

  Outcome out;
  try {
    if (opt.workload == "paper_apps") {
      out = run_paper_apps(opt);
    } else if (opt.workload == "pool_sessions") {
      out = run_pool_sessions(opt);
    } else if (opt.workload == "trace_replay") {
      out = run_trace_replay(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opt.emit_reference) {
    std::printf("%s %llu %lld %016llx\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<long long>(out.virt_ns),
                static_cast<unsigned long long>(out.digest));
    return out.failed == 0 ? 0 : 1;
  }

  // One pass's virtual time and digest must match the committed reference
  // for this seed exactly: a change that only claims speed moves neither.
  const Reference ref = load_reference(opt.reference_path, opt.workload, opt.seed);
  if (ref.found) {
    out.attempted += 1;
    if (ref.virt_ns != out.virt_ns || ref.digest != out.digest) {
      out.failed += 1;
      out.notes.push_back("virtual time or digest differs from the committed reference");
    }
  } else {
    out.notes.push_back("no committed reference for this seed; checked within the run only");
  }

  std::printf("provenance: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"commit\": \"%s\", \"nproc\": %ld}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, compiler(),
              commit.c_str(), sysconf(_SC_NPROCESSORS_ONLN));
  for (const std::string& n : out.notes) std::printf("note: %s\n", n.c_str());
  std::printf("virt_ns_per_pass: %lld  digest: %016llx\n",
              static_cast<long long>(out.virt_ns),
              static_cast<unsigned long long>(out.digest));

  const double fail_ratio =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  std::string json;
  const auto add_json = [&](const std::string& name, double value,
                            const std::string& unit) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name.c_str(), value, unit.c_str());
    json += buf;
  };

  if (!opt.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.metrics.push_back({"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB", true});
    out.metrics.push_back({"fail_ratio", fail_ratio, "ratio", false});
    for (const Metric& m : out.metrics) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      if (m.json) add_json(m.name, m.value, m.unit);
    }
  } else {
    std::printf("  %-32s %16.6f %s\n", "fail_ratio", fail_ratio, "ratio");
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = out.layers.find(m.name);
      const double v = it == out.layers.end() ? 0.0 : it->second;
      std::printf("  %-32s %16.6f %s\n", m.name, v, m.unit);
      add_json(m.name, v, m.unit);
    }
    if (!opt.spans_out.empty()) write_spans(opt.spans_out, out.spans);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), json.c_str());
  return 0;
}
