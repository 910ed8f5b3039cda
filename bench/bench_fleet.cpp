// Fleet bench: one surrogate serving N concurrent client sessions.
//
// Two layers, matching the two halves of the multi-session surrogate:
//
//   * SurrogateServer (platform layer) — N live client/surrogate VM-pair
//     sessions on one server: shared registry + analysis artifacts,
//     per-session heaps/refmaps/fences, deterministic round-robin turns on
//     the server's virtual clock. Each session replays the fig6-style
//     remote-access step (a handful of field writes and reads against its
//     offloaded records, then a flush) once per turn. Reported: sessions/sec,
//     aggregate remote ops/sec, fairness spread across sessions, and
//     p50/p95/p99 per-op virtual latency.
//
//   * FleetEmulator (emul layer) — N recorded app traces interleaved
//     min-virtual-time-first against one *shared* surrogate, so remote ops,
//     surrogate-placed compute and migrations queue on a single busy-until
//     window. Reported: the same throughput metrics plus the queueing share
//     of total emulated time — the capacity story the surrogate pool below
//     starts from.
//
// The surrogate *pool* rides on both layers: emul-side, FleetConfig
// pool_size gives the fleet k busy windows with deterministic
// earliest-free placement; platform-side, SurrogatePool routes admission
// across k servers and re-places sessions on surrogate death.
//
// `--smoke` runs the acceptance gates only and writes nothing (CI):
//   1. per-session service time at N=64 within 1.5x of N=1 (the shared
//      server adds no per-session cost);
//   2. zero steady-state allocations in the session dispatch path —
//      including the pool front door;
//   3. an N=4 emulated fleet is byte-deterministic across repeats, and a
//      1-session fleet equals the plain single-session emulator exactly;
//   4. pool scaling on the saturating N=256 fleet: sessions/sec at k=4 is
//      >= 2.5x k=1 and queue share at k=8 falls below 60%;
//   5. pooled fleet runs and surrogate-death re-placement schedules are
//      byte-deterministic (repeat-run digests).
// Full runs additionally sweep N in {1, 8, 64, 256} on both layers plus
// pool sizes k in {1, 2, 4, 8} at N=256, and write BENCH_fleet.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "emul/fleet.hpp"
#include "platform/surrogate_pool.hpp"
#include "platform/surrogate_server.hpp"
#include "vm/klass.hpp"
#include "vm/vm.hpp"

// --- allocation counter ------------------------------------------------------
// Single-threaded bench; a plain counter keeps the overridden operator new
// cheap (same pattern as bench_vm_hotpath).
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

namespace {

constexpr std::size_t kFleetSizes[] = {1, 8, 64, 256};
constexpr std::size_t kObjectsPerSession = 8;
constexpr std::size_t kTurnsPerSession = 32;
constexpr std::uint32_t kOpsPerTurn = 12;  // 6 writes + 6 reads, then flush

std::shared_ptr<vm::ClassRegistry> rec_registry() {
  auto reg = std::make_shared<vm::ClassRegistry>();
  vm::ClassBuilder cb("Rec");
  for (int f = 0; f < 8; ++f) cb.field("f" + std::to_string(f));
  reg->register_class(cb.build());
  return reg;
}

// Per-session script state, kept outside the server (indexed by slot) so the
// turn function touches no heap after setup.
struct Script {
  std::vector<vm::ObjectRef> objs;
  Rng rng{1};
  std::uint64_t checksum = 0;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

struct ServerRun {
  std::size_t n = 0;
  double total_s = 0.0;             // server virtual clock at the end
  double sessions_per_sec = 0.0;    // N scripts completed / total_s
  double agg_ops_per_sec = 0.0;     // logical remote data ops / total_s
  double fairness = 0.0;            // slowest/fastest session service time
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t remote_ops = 0;
  double mean_service_s = 0.0;      // per-session service time (the gate)
  bench::LatencySummary op_latency;
};

// N sessions, each replaying kTurnsPerSession remote-access steps against
// its own offloaded records on one shared server.
ServerRun run_server_fleet(std::size_t n) {
  platform::ServerConfig cfg;
  cfg.max_sessions = n;
  // A field-only registry carries no method IR: nothing for the analysis
  // gates to chew on (the fleet_test covers gates over a real app registry).
  cfg.static_analysis = false;
  cfg.effect_verify = false;
  platform::SurrogateServer server(rec_registry(), cfg);

  std::vector<Script> scripts(n);
  std::vector<SimDuration> op_lat;
  op_lat.reserve(n * kTurnsPerSession * kOpsPerTurn);

  for (std::size_t i = 0; i < n; ++i) {
    platform::Session* s = server.open_session();
    Script& sc = scripts[i];
    sc.rng = Rng(0xF1EE7 + 31 * static_cast<std::uint64_t>(i));
    std::vector<ObjectId> ids;
    for (std::size_t o = 0; o < kObjectsPerSession; ++o) {
      const vm::ObjectRef obj = s->client().new_object("Rec");
      s->client().add_root(obj);
      sc.objs.push_back(obj);
      ids.push_back(obj.id);
    }
    s->offload(ids);
  }

  const auto turn = [&](platform::Session& s) {
    Script& sc = scripts[s.id().value()];
    vm::Vm& client = s.client();
    SimClock& clock = server.clock();
    // Batched ops don't advance the clock at issue time — measuring
    // issue-to-issue would record an exact 0 for most samples (the old
    // p50=0 artifact). An op completes when the wire sees it: immediately
    // for synchronous ops, at the turn's flush for deferred ones; each
    // sample is its op's full queue+service delta.
    SimTime issued_at[kOpsPerTurn];
    std::uint32_t deferred = 0;
    for (std::uint32_t op = 0; op < kOpsPerTurn; ++op) {
      const SimTime t0 = clock.now();
      const vm::ObjectRef obj =
          sc.objs[sc.rng.next_below(kObjectsPerSession)];
      const FieldId f{static_cast<std::uint32_t>(sc.rng.next_below(8))};
      if ((op & 1) == 0) {
        client.put_field(obj, f,
                         vm::Value{static_cast<std::int64_t>(
                             s.driver_state * 7 + op)});
      } else {
        const vm::Value v = client.get_field(obj, f);
        if (v.is_int()) {
          sc.checksum =
              mix(sc.checksum, static_cast<std::uint64_t>(v.as_int()));
        }
      }
      s.charge_ops(1);
      const SimTime t1 = clock.now();
      if (t1 > t0) {
        op_lat.push_back(t1 - t0);
      } else {
        issued_at[deferred++] = t0;
      }
    }
    s.client_endpoint().flush_pending();
    const SimTime flushed = clock.now();
    for (std::uint32_t i = 0; i < deferred; ++i) {
      op_lat.push_back(flushed - issued_at[i]);
    }
    s.driver_state += 1;
    // Always yield: run_rounds bounds the run, and keeping sessions live
    // lets the stats sweep below read them after the last round.
    return platform::TurnOutcome::yielded;
  };
  server.run_rounds(kTurnsPerSession, turn);

  ServerRun out;
  out.n = n;
  out.total_s = sim_to_seconds(server.clock().now());
  const rpc::EndpointStats agg = server.aggregate_stats();
  out.frames = agg.rpcs_sent;
  out.bytes = agg.bytes_sent;
  out.remote_ops = agg.ops_sent;
  out.sessions_per_sec =
      out.total_s > 0 ? static_cast<double>(n) / out.total_s : 0.0;
  out.agg_ops_per_sec =
      out.total_s > 0 ? static_cast<double>(agg.ops_sent) / out.total_s : 0.0;

  double lo = 0.0, hi = 0.0, sum = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    platform::Session* s = server.find_session(SessionId{
        static_cast<std::uint32_t>(i)});
    const double svc = sim_to_seconds(s->service_time());
    sum += svc;
    if (first || svc < lo) lo = svc;
    if (first || svc > hi) hi = svc;
    first = false;
  }
  out.mean_service_s = sum / static_cast<double>(n);
  out.fairness = lo > 0 ? hi / lo : 1.0;
  out.op_latency = bench::summarize_latency(op_lat);
  return out;
}

// The dispatch-path allocation gate: a server full of sessions whose turn
// touches only its own counters. After warmup, scheduling N sessions for
// many rounds must allocate nothing — turn state lives in the sessions and
// the round order is the slot table itself.
std::uint64_t measure_dispatch_allocs(std::size_t n, std::size_t rounds) {
  platform::ServerConfig cfg;
  cfg.max_sessions = n;
  cfg.static_analysis = false;
  cfg.effect_verify = false;
  platform::SurrogateServer server(rec_registry(), cfg);
  for (std::size_t i = 0; i < n; ++i) server.open_session();

  const platform::SurrogateServer::TurnFn turn =
      [](platform::Session& s) {
        s.charge_ops(1);
        s.driver_state += 1;
        return platform::TurnOutcome::yielded;
      };
  server.run_rounds(2, turn);  // warmup
  const std::uint64_t before = g_alloc_count;
  server.run_rounds(rounds, turn);
  return g_alloc_count - before;
}

struct EmulRun {
  std::size_t n = 0;
  double makespan_s = 0.0;
  double sessions_per_sec = 0.0;
  double agg_ops_per_sec = 0.0;
  double fairness = 0.0;
  double queue_share = 0.0;  // queue time / emulated time, fleet-wide
  std::uint64_t remote_ops = 0;
  bench::LatencySummary op_latency;
};

emul::FleetConfig fleet_config() {
  emul::FleetConfig cfg;
  cfg.session.trigger_mode = emul::TriggerMode::trace_fraction;
  cfg.session.eval_at_fraction = 0.25;
  cfg.session.objective = partition::Objective::speed_up;
  cfg.session.surrogate_speedup = 3.5;
  cfg.session.heap_capacity = std::int64_t{64} << 20;
  cfg.session.stateless_natives_local = true;
  cfg.session.arrays_as_objects = true;
  return cfg;
}

EmulRun run_emul_fleet(const bench::RecordedApp& app, std::size_t n) {
  emul::FleetEmulator fleet(app.registry, fleet_config());
  const emul::FleetResult r = fleet.run(app.trace, n);

  EmulRun out;
  out.n = n;
  out.makespan_s = sim_to_seconds(r.makespan);
  out.sessions_per_sec =
      out.makespan_s > 0 ? static_cast<double>(n) / out.makespan_s : 0.0;
  out.agg_ops_per_sec =
      out.makespan_s > 0
          ? static_cast<double>(r.total_remote_ops) / out.makespan_s
          : 0.0;
  out.fairness = r.fairness_spread();
  out.remote_ops = r.total_remote_ops;
  SimDuration queued = 0, emulated = 0;
  for (const auto& s : r.sessions) {
    queued += s.queue_time;
    emulated += s.emulated_time;
  }
  out.queue_share = emulated > 0 ? static_cast<double>(queued) /
                                       static_cast<double>(emulated)
                                 : 0.0;
  out.op_latency = bench::summarize_latency(r.op_latencies);
  return out;
}

// --- surrogate pool ----------------------------------------------------------

constexpr std::size_t kPoolSizes[] = {1, 2, 4, 8};
constexpr std::size_t kPoolFleetN = 256;  // the saturating fleet size
// The pool sweep models fleet members as multi-context surrogate boxes
// (desktop-class: cores + async NIC retire concurrent sessions' charges in
// parallel), held constant across k so the sweep isolates pool-size scaling.
// The single-context k=1 legacy window stays in the emul_fleet table above.
constexpr std::size_t kPoolConcurrency = 16;

struct PoolRun {
  std::size_t k = 0;
  std::size_t n = 0;
  double makespan_s = 0.0;
  double sessions_per_sec = 0.0;
  double agg_ops_per_sec = 0.0;
  double queue_share = 0.0;
  double busy_balance = 1.0;  // busiest member / mean member occupancy
  std::uint64_t remote_ops = 0;
  std::uint64_t placements = 0;
};

PoolRun summarize_pool_run(const emul::FleetResult& r, std::size_t n,
                           std::size_t k) {
  PoolRun out;
  out.k = k;
  out.n = n;
  out.makespan_s = sim_to_seconds(r.makespan);
  out.sessions_per_sec =
      out.makespan_s > 0 ? static_cast<double>(n) / out.makespan_s : 0.0;
  out.agg_ops_per_sec =
      out.makespan_s > 0
          ? static_cast<double>(r.total_remote_ops) / out.makespan_s
          : 0.0;
  SimDuration queued = 0, emulated = 0;
  for (const auto& s : r.sessions) {
    queued += s.queue_time;
    emulated += s.emulated_time;
  }
  out.queue_share = emulated > 0 ? static_cast<double>(queued) /
                                       static_cast<double>(emulated)
                                 : 0.0;
  SimDuration busy_max = 0, busy_sum = 0;
  for (const SimDuration b : r.surrogate_busy_each) {
    busy_max = b > busy_max ? b : busy_max;
    busy_sum += b;
  }
  out.busy_balance =
      busy_sum > 0 ? static_cast<double>(busy_max) * static_cast<double>(k) /
                         static_cast<double>(busy_sum)
                   : 1.0;
  out.remote_ops = r.total_remote_ops;
  out.placements = r.placements.size();
  return out;
}

emul::FleetResult run_pool_fleet_raw(const bench::RecordedApp& app,
                                     std::size_t n, std::size_t k) {
  emul::FleetConfig cfg = fleet_config();
  cfg.pool_size = k;
  cfg.surrogate_concurrency = kPoolConcurrency;
  emul::FleetEmulator fleet(app.registry, cfg);
  return fleet.run(app.trace, n);
}

// Everything observable about a fleet run folded into one word: per-session
// times, every op latency, the session -> member placement schedule
// and per-member occupancy. Two runs of the same config must agree exactly.
std::uint64_t fleet_digest(const emul::FleetResult& r) {
  std::uint64_t h = 0x5EEDF1EE7ULL;
  for (const auto& s : r.sessions) {
    h = mix(h, static_cast<std::uint64_t>(s.emulated_time));
    h = mix(h, static_cast<std::uint64_t>(s.queue_time));
  }
  for (const SimDuration d : r.op_latencies) {
    h = mix(h, static_cast<std::uint64_t>(d));
  }
  for (const auto& p : r.placements) {
    h = mix(h, p.session);
    h = mix(h, p.surrogate);
    h = mix(h, static_cast<std::uint64_t>(p.at));
  }
  for (const SimDuration b : r.surrogate_busy_each) {
    h = mix(h, static_cast<std::uint64_t>(b));
  }
  return h;
}

// Platform-layer pool: heterogeneous members, policy-routed admission, a
// surrogate death mid-run. The digest covers the placement map, the
// re-placement schedule and the aggregate counters; two runs must agree
// bit-for-bit (the fleet determinism story includes failover).
std::uint64_t pool_failover_digest() {
  platform::PoolConfig pc;
  pc.members.resize(4);
  for (std::size_t i = 0; i < pc.members.size(); ++i) {
    platform::ServerConfig& m = pc.members[i];
    m.max_sessions = 8;
    m.static_analysis = false;
    m.effect_verify = false;
    m.surrogate_speedup = 2.0 + 0.5 * static_cast<double>(i);
  }
  platform::SurrogatePool pool(rec_registry(), pc);
  constexpr std::uint32_t kSessions = 12;
  for (std::uint32_t i = 0; i < kSessions; ++i) (void)pool.open_session();

  const platform::SurrogateServer::TurnFn turn =
      [](platform::Session& s) {
        s.charge_ops(1);
        s.driver_state += 1;
        return platform::TurnOutcome::yielded;
      };
  pool.run_rounds(4, turn);

  std::uint64_t h = 0xF007BA11ULL;
  for (std::uint32_t i = 0; i < kSessions; ++i) {
    h = mix(h, pool.member_of(SessionId{i}));
  }
  const std::size_t victim = pool.member_of(SessionId{0});
  for (const platform::Replacement& r : pool.kill_surrogate(victim)) {
    h = mix(h, r.old_id.value());
    h = mix(h, r.new_id.value());
    h = mix(h, r.from);
    h = mix(h, r.to);
  }
  pool.run_rounds(4, turn);
  const platform::ServerStats agg = pool.aggregate_server_stats();
  h = mix(h, agg.sessions_opened);
  h = mix(h, agg.sessions_closed);
  h = mix(h, agg.turns);
  h = mix(h, agg.rounds);
  h = mix(h, pool.stats().replacements);
  h = mix(h, static_cast<std::uint64_t>(pool.clock().now()));
  return h;
}

// Pool front-door analogue of measure_dispatch_allocs: routing turns through
// k members must stay allocation-free once the session tables are warm.
std::uint64_t measure_pool_dispatch_allocs(std::size_t k, std::size_t n,
                                           std::size_t rounds) {
  platform::PoolConfig pc;
  pc.members.resize(k);
  for (platform::ServerConfig& m : pc.members) {
    m.max_sessions = n;
    m.static_analysis = false;
    m.effect_verify = false;
  }
  platform::SurrogatePool pool(rec_registry(), pc);
  for (std::size_t i = 0; i < n; ++i) (void)pool.open_session();

  const platform::SurrogateServer::TurnFn turn =
      [](platform::Session& s) {
        s.charge_ops(1);
        s.driver_state += 1;
        return platform::TurnOutcome::yielded;
      };
  pool.run_rounds(2, turn);  // warmup
  const std::uint64_t before = g_alloc_count;
  pool.run_rounds(rounds, turn);
  return g_alloc_count - before;
}

void print_server_run(const ServerRun& r) {
  std::printf(
      "  server N=%-4zu %8.1f sessions/s  %10.0f ops/s  fairness %5.3f  "
      "op p50/p95/p99 %6.0f/%6.0f/%6.0f ns  frames %llu\n",
      r.n, r.sessions_per_sec, r.agg_ops_per_sec, r.fairness,
      r.op_latency.p50_ns, r.op_latency.p95_ns, r.op_latency.p99_ns,
      static_cast<unsigned long long>(r.frames));
}

void print_emul_run(const EmulRun& r) {
  std::printf(
      "  emul   N=%-4zu %8.1f sessions/s  %10.0f ops/s  fairness %5.3f  "
      "op p50/p95/p99 %6.0f/%6.0f/%6.0f ns  queue share %4.1f%%\n",
      r.n, r.sessions_per_sec, r.agg_ops_per_sec, r.fairness,
      r.op_latency.p50_ns, r.op_latency.p95_ns, r.op_latency.p99_ns,
      r.queue_share * 100.0);
}

void print_pool_run(const PoolRun& r) {
  std::printf(
      "  pool   k=%-2zu N=%-4zu %8.1f sessions/s  %10.0f ops/s  "
      "queue share %5.1f%%  busy balance %5.3f\n",
      r.k, r.n, r.sessions_per_sec, r.agg_ops_per_sec, r.queue_share * 100.0,
      r.busy_balance);
}

apps::AppParams fleet_app_params() {
  apps::AppParams p;
  p.trace_w = 12;
  p.trace_h = 8;
  p.spheres = 4;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_header(
      "Fleet: one surrogate server, N concurrent sessions "
      "(WaveLAN; remote-access scripts + emulated app-trace fleet)");

  // --- gates (always run) ----------------------------------------------------
  const ServerRun one = run_server_fleet(1);
  const ServerRun sixty_four = run_server_fleet(64);
  const double overhead_ratio =
      one.mean_service_s > 0 ? sixty_four.mean_service_s / one.mean_service_s
                             : 0.0;
  const bool overhead_ok = overhead_ratio <= 1.5;

  const std::uint64_t dispatch_allocs = measure_dispatch_allocs(64, 64);
  const bool alloc_ok = dispatch_allocs == 0;

  // Determinism: an emulated fleet is a pure function of trace + config, and
  // a 1-session fleet equals the plain emulator exactly.
  const bench::RecordedApp app = bench::record_app("Tracer",
                                                   fleet_app_params());
  emul::FleetEmulator fleet(app.registry, fleet_config());
  const emul::FleetResult fa = fleet.run(app.trace, 4);
  const emul::FleetResult fb = fleet.run(app.trace, 4);
  bool deterministic = fa.sessions.size() == fb.sessions.size() &&
                       fa.op_latencies == fb.op_latencies;
  for (std::size_t i = 0; deterministic && i < fa.sessions.size(); ++i) {
    deterministic = fa.sessions[i].emulated_time ==
                        fb.sessions[i].emulated_time &&
                    fa.sessions[i].queue_time == fb.sessions[i].queue_time;
  }
  emul::Emulator solo(app.registry, fleet_config().session);
  const emul::EmulationResult solo_r = solo.run(app.trace);
  const emul::FleetResult f1 = fleet.run(app.trace, 1);
  const bool parity =
      f1.sessions.size() == 1 &&
      f1.sessions[0].emulated_time == solo_r.emulated_time &&
      f1.sessions[0].queue_time == 0 && solo_r.queue_time == 0;

  std::printf(
      "\n  gate: per-session service N=64 %.6f s vs N=1 %.6f s  "
      "(%.3fx %s 1.5x)\n",
      sixty_four.mean_service_s, one.mean_service_s, overhead_ratio,
      overhead_ok ? "<=" : "EXCEEDS");
  std::printf("  gate: dispatch allocations over 64 rounds x 64 sessions: "
              "%llu %s\n",
              static_cast<unsigned long long>(dispatch_allocs),
              alloc_ok ? "(zero OK)" : "(GATE FAILED)");
  std::printf("  gate: N=4 fleet deterministic: %s   N=1 fleet == emulator: "
              "%s\n",
              deterministic ? "yes" : "NO", parity ? "yes" : "NO");

  // --- pool gates -------------------------------------------------------------
  // The saturating Tracer fleet (N=256, queue share ~99%) is where the
  // single surrogate dies; the pool has to buy the throughput back.
  const emul::FleetResult pr1 = run_pool_fleet_raw(app, kPoolFleetN, 1);
  const emul::FleetResult pr4 = run_pool_fleet_raw(app, kPoolFleetN, 4);
  const emul::FleetResult pr8 = run_pool_fleet_raw(app, kPoolFleetN, 8);
  const PoolRun pool_k1 = summarize_pool_run(pr1, kPoolFleetN, 1);
  const PoolRun pool_k4 = summarize_pool_run(pr4, kPoolFleetN, 4);
  const PoolRun pool_k8 = summarize_pool_run(pr8, kPoolFleetN, 8);
  const double pool_speedup =
      pool_k1.sessions_per_sec > 0
          ? pool_k4.sessions_per_sec / pool_k1.sessions_per_sec
          : 0.0;
  const bool pool_scaling_ok = pool_speedup >= 2.5;
  const bool pool_queue_ok = pool_k8.queue_share < 0.6;
  const bool pool_fleet_deterministic =
      fleet_digest(run_pool_fleet_raw(app, 8, 4)) ==
      fleet_digest(run_pool_fleet_raw(app, 8, 4));
  const bool pool_failover_deterministic =
      pool_failover_digest() == pool_failover_digest();
  const std::uint64_t pool_allocs = measure_pool_dispatch_allocs(4, 64, 64);
  const bool pool_alloc_ok = pool_allocs == 0;

  std::printf(
      "  gate: pool N=%zu sessions/s k=4 %.1f vs k=1 %.1f  (%.2fx %s 2.5x)\n",
      kPoolFleetN, pool_k4.sessions_per_sec, pool_k1.sessions_per_sec,
      pool_speedup, pool_scaling_ok ? ">=" : "BELOW");
  std::printf("  gate: pool N=%zu queue share k=8 %.1f%% %s 60%%\n",
              kPoolFleetN, pool_k8.queue_share * 100.0,
              pool_queue_ok ? "<" : "EXCEEDS");
  std::printf("  gate: pool fleet digest deterministic: %s   "
              "failover schedule deterministic: %s\n",
              pool_fleet_deterministic ? "yes" : "NO",
              pool_failover_deterministic ? "yes" : "NO");
  std::printf("  gate: pool dispatch allocations over 64 rounds x 64 "
              "sessions x 4 members: %llu %s\n",
              static_cast<unsigned long long>(pool_allocs),
              pool_alloc_ok ? "(zero OK)" : "(GATE FAILED)");

  const bool pool_ok = pool_scaling_ok && pool_queue_ok &&
                       pool_fleet_deterministic &&
                       pool_failover_deterministic && pool_alloc_ok;
  const bool gates_ok =
      overhead_ok && alloc_ok && deterministic && parity && pool_ok;

  if (smoke) {
    std::printf("  %s\n", gates_ok ? "OK" : "FAILED");
    return gates_ok ? 0 : 1;
  }

  // --- full sweep ------------------------------------------------------------
  std::printf("\n");
  std::vector<ServerRun> server_runs;
  for (const std::size_t n : kFleetSizes) {
    server_runs.push_back(n == 1    ? one
                          : n == 64 ? sixty_four
                                    : run_server_fleet(n));
    print_server_run(server_runs.back());
  }
  std::printf("\n");
  std::vector<EmulRun> emul_runs;
  for (const std::size_t n : kFleetSizes) {
    emul_runs.push_back(run_emul_fleet(app, n));
    print_emul_run(emul_runs.back());
  }
  std::printf("\n");
  std::vector<PoolRun> pool_runs;
  for (const std::size_t k : kPoolSizes) {
    pool_runs.push_back(
        k == 1   ? pool_k1
        : k == 4 ? pool_k4
        : k == 8 ? pool_k8
                 : summarize_pool_run(run_pool_fleet_raw(app, kPoolFleetN, k),
                                      kPoolFleetN, k));
    print_pool_run(pool_runs.back());
  }

  std::ofstream json("BENCH_fleet.json");
  json << "{\n  \"gate\": {\"overhead_ratio_n64\": " << overhead_ratio
       << ", \"overhead_limit\": 1.5"
       << ", \"dispatch_allocs\": " << dispatch_allocs
       << ", \"deterministic\": " << (deterministic ? "true" : "false")
       << ", \"single_session_parity\": " << (parity ? "true" : "false")
       << ", \"gate_ok\": " << (gates_ok ? "true" : "false") << "},\n";
  json << "  \"server\": [\n";
  for (std::size_t i = 0; i < server_runs.size(); ++i) {
    const ServerRun& r = server_runs[i];
    json << "    {\"n\": " << r.n
         << ", \"sessions_per_sec\": " << r.sessions_per_sec
         << ", \"agg_remote_ops_per_sec\": " << r.agg_ops_per_sec
         << ", \"fairness_spread\": " << r.fairness
         << ", \"mean_service_s\": " << r.mean_service_s
         << ", \"frames\": " << r.frames << ", \"bytes\": " << r.bytes
         << ", \"remote_ops\": " << r.remote_ops
         << ", \"op_latency\": " << bench::latency_json(r.op_latency) << "}"
         << (i + 1 < server_runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"emul_fleet\": [\n";
  for (std::size_t i = 0; i < emul_runs.size(); ++i) {
    const EmulRun& r = emul_runs[i];
    json << "    {\"n\": " << r.n << ", \"workload\": \"Tracer\""
         << ", \"makespan_s\": " << r.makespan_s
         << ", \"sessions_per_sec\": " << r.sessions_per_sec
         << ", \"agg_remote_ops_per_sec\": " << r.agg_ops_per_sec
         << ", \"fairness_spread\": " << r.fairness
         << ", \"queue_share\": " << r.queue_share
         << ", \"remote_ops\": " << r.remote_ops
         << ", \"op_latency\": " << bench::latency_json(r.op_latency) << "}"
         << (i + 1 < emul_runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"pool\": {\n    \"gate\": {\"n\": " << kPoolFleetN
       << ", \"speedup_k4_vs_k1\": " << pool_speedup
       << ", \"speedup_floor\": 2.5"
       << ", \"queue_share_k8\": " << pool_k8.queue_share
       << ", \"queue_share_limit\": 0.6"
       << ", \"dispatch_allocs\": " << pool_allocs
       << ", \"fleet_deterministic\": "
       << (pool_fleet_deterministic ? "true" : "false")
       << ", \"failover_deterministic\": "
       << (pool_failover_deterministic ? "true" : "false")
       << ", \"gate_ok\": " << (pool_ok ? "true" : "false") << "},\n";
  json << "    \"sweep\": [\n";
  for (std::size_t i = 0; i < pool_runs.size(); ++i) {
    const PoolRun& r = pool_runs[i];
    json << "      {\"k\": " << r.k << ", \"n\": " << r.n
         << ", \"workload\": \"Tracer\""
         << ", \"makespan_s\": " << r.makespan_s
         << ", \"sessions_per_sec\": " << r.sessions_per_sec
         << ", \"agg_remote_ops_per_sec\": " << r.agg_ops_per_sec
         << ", \"queue_share\": " << r.queue_share
         << ", \"busy_balance\": " << r.busy_balance
         << ", \"remote_ops\": " << r.remote_ops
         << ", \"placements\": " << r.placements << "}"
         << (i + 1 < pool_runs.size() ? "," : "") << "\n";
  }
  json << "    ]\n  }\n}\n";
  std::printf("\n  wrote BENCH_fleet.json (%zu fleet sizes, %zu pool sizes, "
              "2 layers)\n",
              server_runs.size(), pool_runs.size());

  std::printf("  %s\n", gates_ok ? "OK" : "FAILED");
  return gates_ok ? 0 : 1;
}
