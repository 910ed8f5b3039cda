// Fleet bench: N concurrent client sessions on a real SurrogatePool.
//
// Every row comes from one function, run_fleet(k, n): n sessions on a k-member
// pool, each owning kObjectsPerSession offloaded records and replaying the
// fig6-style remote-access step (6 field writes and 6 reads against its
// records, then a flush) once per turn, for kTurnsPerSession turns. Every
// read is checked against a per-session shadow of the last value written.
//
//   * Server table, k = 1, N in {1, 8, 64, 256}. A one-member pool is one
//     SurrogateServer on the pool clock. Reported: sessions/sec, aggregate
//     remote ops/sec, fairness spread across sessions, and p50/p95/p99
//     per-op virtual latency.
//   * Pool table, N = 256, k in {1, 2, 4, 8}. Members share no state and each
//     runs its own sessions' turns one at a time, and with the default
//     config (inert fault plan, no heartbeat) a turn's virtual duration does
//     not depend on when it runs. So k independent members finish when the
//     busiest one has run all of its turns: the makespan is the largest
//     per-member sum of Session::service_time(). The pool keeps one shared
//     clock only so that every run is reproducible. Reported: makespan,
//     sessions/sec, busy balance (busiest member over the mean member),
//     remote ops and placements. The k=1 row is the N=256 server run.
//
// Acceptance gates (printed first; the exit status is their verdict):
//   1. per-session service time at N=64 within 1.5x of N=1 (the shared
//      server adds no per-session cost);
//   2. zero steady-state allocations in the session dispatch path, on one
//      member (k=1) and through the pool front door (k=4);
//   3. pool scaling at N=256: sessions/sec at k=4 >= 2.5x k=1, and busy
//      balance at k=8 <= 1.1 (the placement policy spreads the load);
//   4. a 4-member, 16-session run and a surrogate-death re-placement
//      schedule are byte-deterministic (repeat-run digests);
//   5. every read returns the value last written (0 bad reads).
// `--smoke` stops after the gates and writes nothing (CI); a full run also
// prints both tables and writes BENCH_fleet.json.
#include <algorithm>
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
#include "platform/surrogate_pool.hpp"
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
constexpr std::size_t kPoolSizes[] = {1, 2, 4, 8};
constexpr std::size_t kPoolFleetN = 256;
constexpr std::size_t kObjectsPerSession = 8;
constexpr std::uint32_t kFields = 8;
constexpr std::size_t kTurnsPerSession = 32;
constexpr std::uint32_t kOpsPerTurn = 12;  // 6 writes + 6 reads, then flush

std::shared_ptr<vm::ClassRegistry> rec_registry() {
  auto reg = std::make_shared<vm::ClassRegistry>();
  vm::ClassBuilder cb("Rec");
  for (std::uint32_t f = 0; f < kFields; ++f) {
    cb.field("f" + std::to_string(f));
  }
  reg->register_class(cb.build());
  return reg;
}

// k identical members, each able to admit every session.
platform::PoolConfig pool_config(std::size_t k, std::size_t max_sessions) {
  platform::PoolConfig pc;
  pc.members.resize(k);
  for (platform::ServerConfig& m : pc.members) {
    m.max_sessions = max_sessions;
    // A field-only registry carries no method IR: nothing for the analysis
    // gates to chew on (fleet_test covers gates over a real app registry).
    m.static_analysis = false;
    m.effect_verify = false;
  }
  return pc;
}

// Per-session script state, kept outside the pool (indexed by session id) so
// the turn function touches no heap after setup.
struct Script {
  std::vector<vm::ObjectRef> objs;
  Rng rng{1};
  // The last value written to each (object, field): what a read must return.
  std::vector<vm::Value> shadow =
      std::vector<vm::Value>(kObjectsPerSession * kFields);
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

struct FleetRun {
  std::size_t k = 0;
  std::size_t n = 0;
  // Server view, over the pool clock at the end (setup offloads included).
  double sessions_per_sec = 0.0;  // n scripts completed / clock
  double agg_ops_per_sec = 0.0;   // logical remote data ops / clock
  double fairness = 0.0;          // slowest/fastest session service time
  double mean_service_s = 0.0;    // per-session service time (the gate)
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t remote_ops = 0;
  bench::LatencySummary op_latency;
  // Pool view: a member's busy time is its sessions' summed service time.
  double makespan_s = 0.0;             // the busiest member's busy time
  double pool_sessions_per_sec = 0.0;  // n / makespan_s
  double busy_balance = 1.0;           // busiest member / mean member
  std::uint64_t placements = 0;
  std::uint64_t bad_reads = 0;  // reads that differ from the shadow
  // The placement map and every session's service time in one word.
  std::uint64_t digest = 0;
};

FleetRun run_fleet(std::size_t k, std::size_t n) {
  platform::SurrogatePool pool(rec_registry(), pool_config(k, n));

  std::vector<Script> scripts(n);
  std::vector<SimDuration> op_lat;
  op_lat.reserve(n * kTurnsPerSession * kOpsPerTurn);

  for (std::size_t i = 0; i < n; ++i) {
    platform::Session* s = pool.open_session();
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

  std::uint64_t bad_reads = 0;
  SimClock& clock = pool.clock();
  const auto turn = [&](platform::Session& s) {
    Script& sc = scripts[s.id().value()];
    vm::Vm& client = s.client();
    // Batched ops don't advance the clock at issue time — measuring
    // issue-to-issue would record an exact 0 for most samples (the old
    // p50=0 artifact). An op completes when the wire sees it: immediately
    // for synchronous ops, at the turn's flush for deferred ones; each
    // sample is its op's full queue+service delta.
    SimTime issued_at[kOpsPerTurn];
    std::uint32_t deferred = 0;
    for (std::uint32_t op = 0; op < kOpsPerTurn; ++op) {
      const SimTime t0 = clock.now();
      const std::size_t o = sc.rng.next_below(kObjectsPerSession);
      const FieldId f{static_cast<std::uint32_t>(sc.rng.next_below(kFields))};
      vm::Value& expect = sc.shadow[o * kFields + f.value()];
      if ((op & 1) == 0) {
        expect = vm::Value{static_cast<std::int64_t>(s.driver_state * 7 + op)};
        client.put_field(sc.objs[o], f, expect);
      } else if (!(client.get_field(sc.objs[o], f) == expect)) {
        bad_reads += 1;
      }
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
  pool.run_rounds(kTurnsPerSession, turn);

  FleetRun out;
  out.k = k;
  out.n = n;
  out.bad_reads = bad_reads;
  out.placements = pool.stats().placements;
  const double total_s = sim_to_seconds(clock.now());
  rpc::EndpointStats agg;
  for (std::size_t m = 0; m < k; ++m) agg += pool.member(m).aggregate_stats();
  out.frames = agg.rpcs_sent;
  out.bytes = agg.bytes_sent;
  out.remote_ops = agg.ops_sent;
  out.sessions_per_sec = total_s > 0 ? static_cast<double>(n) / total_s : 0.0;
  out.agg_ops_per_sec =
      total_s > 0 ? static_cast<double>(agg.ops_sent) / total_s : 0.0;

  double lo = 0.0, hi = 0.0, sum = 0.0;
  std::vector<SimDuration> busy(k, 0);
  std::uint64_t h = 0x5EEDF1EE7ULL;
  for (std::size_t i = 0; i < n; ++i) {
    const SessionId id{static_cast<std::uint32_t>(i)};
    const SimDuration svc_ns = pool.find_session(id)->service_time();
    const std::size_t member = pool.member_of(id);
    busy[member] += svc_ns;
    h = mix(h, member);
    h = mix(h, static_cast<std::uint64_t>(svc_ns));
    const double svc = sim_to_seconds(svc_ns);
    sum += svc;
    if (i == 0 || svc < lo) lo = svc;
    if (i == 0 || svc > hi) hi = svc;
  }
  out.digest = h;
  out.mean_service_s = sum / static_cast<double>(n);
  out.fairness = lo > 0 ? hi / lo : 1.0;
  out.op_latency = bench::summarize_latency(op_lat);

  SimDuration busy_max = 0, busy_sum = 0;
  for (const SimDuration b : busy) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  out.makespan_s = sim_to_seconds(busy_max);
  out.pool_sessions_per_sec =
      out.makespan_s > 0 ? static_cast<double>(n) / out.makespan_s : 0.0;
  out.busy_balance =
      busy_sum > 0 ? static_cast<double>(busy_max) * static_cast<double>(k) /
                         static_cast<double>(busy_sum)
                   : 1.0;
  return out;
}

// A turn that touches only its session's own counter.
platform::TurnOutcome idle_turn(platform::Session& s) {
  s.driver_state += 1;
  return platform::TurnOutcome::yielded;
}

// The dispatch-path allocation gate: a pool full of idle sessions. After
// warmup, scheduling them for many rounds must allocate nothing — turn state
// lives in the sessions and the round order is each member's slot table.
std::uint64_t measure_dispatch_allocs(std::size_t k, std::size_t n,
                                      std::size_t rounds) {
  platform::SurrogatePool pool(rec_registry(), pool_config(k, n));
  for (std::size_t i = 0; i < n; ++i) (void)pool.open_session();

  const platform::SurrogateServer::TurnFn turn = idle_turn;
  pool.run_rounds(2, turn);  // warmup
  const std::uint64_t before = g_alloc_count;
  pool.run_rounds(rounds, turn);
  return g_alloc_count - before;
}

// Heterogeneous members, policy-routed admission, a surrogate death mid-run.
// The digest covers the placement map, the re-placement schedule and the
// aggregate counters; two runs must agree bit-for-bit.
std::uint64_t pool_failover_digest() {
  platform::PoolConfig pc = pool_config(4, 8);
  for (std::size_t i = 0; i < pc.members.size(); ++i) {
    pc.members[i].surrogate_speedup = 2.0 + 0.5 * static_cast<double>(i);
  }
  platform::SurrogatePool pool(rec_registry(), pc);
  constexpr std::uint32_t kSessions = 12;
  for (std::uint32_t i = 0; i < kSessions; ++i) (void)pool.open_session();

  const platform::SurrogateServer::TurnFn turn = idle_turn;
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

const FleetRun& find_run(const std::vector<FleetRun>& runs, std::size_t k,
                         std::size_t n) {
  for (const FleetRun& r : runs) {
    if (r.k == k && r.n == n) return r;
  }
  std::abort();
}

void print_server_run(const FleetRun& r) {
  std::printf(
      "  server N=%-4zu %8.1f sessions/s  %10.0f ops/s  fairness %5.3f  "
      "op p50/p95/p99 %6.0f/%6.0f/%6.0f ns  frames %llu\n",
      r.n, r.sessions_per_sec, r.agg_ops_per_sec, r.fairness,
      r.op_latency.p50_ns, r.op_latency.p95_ns, r.op_latency.p99_ns,
      static_cast<unsigned long long>(r.frames));
}

void print_pool_run(const FleetRun& r) {
  std::printf(
      "  pool   k=%-2zu N=%-4zu %8.1f sessions/s  makespan %7.3f s  "
      "busy balance %5.3f  remote ops %llu  placements %llu\n",
      r.k, r.n, r.pool_sessions_per_sec, r.makespan_s, r.busy_balance,
      static_cast<unsigned long long>(r.remote_ops),
      static_cast<unsigned long long>(r.placements));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_header(
      "Fleet: N concurrent sessions on a pool of k surrogate servers "
      "(WaveLAN; remote-access scripts)");

  std::vector<FleetRun> runs;
  for (const std::size_t n : kFleetSizes) runs.push_back(run_fleet(1, n));
  for (const std::size_t k : kPoolSizes) {
    if (k != 1) runs.push_back(run_fleet(k, kPoolFleetN));
  }

  // --- gates -----------------------------------------------------------------
  const FleetRun& one = find_run(runs, 1, 1);
  const FleetRun& sixty_four = find_run(runs, 1, 64);
  const double overhead_ratio =
      one.mean_service_s > 0 ? sixty_four.mean_service_s / one.mean_service_s
                             : 0.0;
  const bool overhead_ok = overhead_ratio <= 1.5;

  const std::uint64_t dispatch_allocs = measure_dispatch_allocs(1, 64, 64);
  const std::uint64_t pool_allocs = measure_dispatch_allocs(4, 64, 64);
  const bool alloc_ok = dispatch_allocs == 0 && pool_allocs == 0;

  const FleetRun& pool_k1 = find_run(runs, 1, kPoolFleetN);
  const FleetRun& pool_k4 = find_run(runs, 4, kPoolFleetN);
  const FleetRun& pool_k8 = find_run(runs, 8, kPoolFleetN);
  const double pool_speedup =
      pool_k1.pool_sessions_per_sec > 0
          ? pool_k4.pool_sessions_per_sec / pool_k1.pool_sessions_per_sec
          : 0.0;
  const bool pool_scaling_ok = pool_speedup >= 2.5;
  const bool pool_balance_ok = pool_k8.busy_balance <= 1.1;
  const bool pool_run_deterministic =
      run_fleet(4, 16).digest == run_fleet(4, 16).digest;
  const bool pool_failover_deterministic =
      pool_failover_digest() == pool_failover_digest();

  std::uint64_t bad_reads = 0;
  for (const FleetRun& r : runs) bad_reads += r.bad_reads;
  const bool reads_ok = bad_reads == 0;

  std::printf(
      "\n  gate: per-session service N=64 %.6f s vs N=1 %.6f s  "
      "(%.3fx %s 1.5x)\n",
      sixty_four.mean_service_s, one.mean_service_s, overhead_ratio,
      overhead_ok ? "<=" : "EXCEEDS");
  std::printf("  gate: dispatch allocations over 64 rounds x 64 sessions, "
              "k=1: %llu, k=4: %llu %s\n",
              static_cast<unsigned long long>(dispatch_allocs),
              static_cast<unsigned long long>(pool_allocs),
              alloc_ok ? "(zero OK)" : "(GATE FAILED)");
  std::printf(
      "  gate: pool N=%zu sessions/s k=4 %.1f vs k=1 %.1f  (%.2fx %s 2.5x)\n",
      kPoolFleetN, pool_k4.pool_sessions_per_sec,
      pool_k1.pool_sessions_per_sec, pool_speedup,
      pool_scaling_ok ? ">=" : "BELOW");
  std::printf("  gate: pool N=%zu busy balance k=8 %.3f %s 1.1\n", kPoolFleetN,
              pool_k8.busy_balance, pool_balance_ok ? "<=" : "EXCEEDS");
  std::printf("  gate: pooled run digest deterministic: %s   "
              "failover schedule deterministic: %s\n",
              pool_run_deterministic ? "yes" : "NO",
              pool_failover_deterministic ? "yes" : "NO");
  std::printf("  gate: bad reads over %zu runs: %llu %s\n", runs.size(),
              static_cast<unsigned long long>(bad_reads),
              reads_ok ? "(zero OK)" : "(GATE FAILED)");

  const bool pool_ok = pool_scaling_ok && pool_balance_ok &&
                       pool_run_deterministic && pool_failover_deterministic &&
                       pool_allocs == 0;
  const bool gates_ok = overhead_ok && alloc_ok && reads_ok && pool_ok;

  if (smoke) {
    std::printf("  %s\n", gates_ok ? "OK" : "FAILED");
    return gates_ok ? 0 : 1;
  }

  // --- tables ----------------------------------------------------------------
  std::printf("\n");
  for (const std::size_t n : kFleetSizes) {
    print_server_run(find_run(runs, 1, n));
  }
  std::printf("\n");
  for (const std::size_t k : kPoolSizes) {
    print_pool_run(find_run(runs, k, kPoolFleetN));
  }

  std::ofstream json("BENCH_fleet.json");
  json << "{\n  \"gate\": {\"overhead_ratio_n64\": " << overhead_ratio
       << ", \"overhead_limit\": 1.5"
       << ", \"dispatch_allocs\": " << dispatch_allocs
       << ", \"bad_reads\": " << bad_reads
       << ", \"gate_ok\": " << (gates_ok ? "true" : "false") << "},\n";
  json << "  \"server\": [\n";
  for (std::size_t i = 0; i < std::size(kFleetSizes); ++i) {
    const FleetRun& r = find_run(runs, 1, kFleetSizes[i]);
    json << "    {\"n\": " << r.n
         << ", \"sessions_per_sec\": " << r.sessions_per_sec
         << ", \"agg_remote_ops_per_sec\": " << r.agg_ops_per_sec
         << ", \"fairness_spread\": " << r.fairness
         << ", \"mean_service_s\": " << r.mean_service_s
         << ", \"frames\": " << r.frames << ", \"bytes\": " << r.bytes
         << ", \"remote_ops\": " << r.remote_ops
         << ", \"op_latency\": " << bench::latency_json(r.op_latency) << "}"
         << (i + 1 < std::size(kFleetSizes) ? "," : "") << "\n";
  }
  json << "  ],\n  \"pool\": {\n    \"gate\": {\"n\": " << kPoolFleetN
       << ", \"speedup_k4_vs_k1\": " << pool_speedup
       << ", \"speedup_floor\": 2.5"
       << ", \"busy_balance_k8\": " << pool_k8.busy_balance
       << ", \"busy_balance_limit\": 1.1"
       << ", \"dispatch_allocs\": " << pool_allocs
       << ", \"pooled_run_deterministic\": "
       << (pool_run_deterministic ? "true" : "false")
       << ", \"failover_deterministic\": "
       << (pool_failover_deterministic ? "true" : "false")
       << ", \"gate_ok\": " << (pool_ok ? "true" : "false") << "},\n";
  json << "    \"sweep\": [\n";
  for (std::size_t i = 0; i < std::size(kPoolSizes); ++i) {
    const FleetRun& r = find_run(runs, kPoolSizes[i], kPoolFleetN);
    json << "      {\"k\": " << r.k << ", \"n\": " << r.n
         << ", \"makespan_s\": " << r.makespan_s
         << ", \"sessions_per_sec\": " << r.pool_sessions_per_sec
         << ", \"busy_balance\": " << r.busy_balance
         << ", \"remote_ops\": " << r.remote_ops
         << ", \"placements\": " << r.placements << "}"
         << (i + 1 < std::size(kPoolSizes) ? "," : "") << "\n";
  }
  json << "    ]\n  }\n}\n";
  std::printf("\n  wrote BENCH_fleet.json (%zu fleet sizes, %zu pool sizes)\n",
              std::size(kFleetSizes), std::size(kPoolSizes));

  std::printf("  %s\n", gates_ok ? "OK" : "FAILED");
  return gates_ok ? 0 : 1;
}
