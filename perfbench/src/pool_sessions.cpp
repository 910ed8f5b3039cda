// pool_sessions: a k = 4 SurrogatePool serving 64 sessions (16 per member),
// each owning 8 offloaded 8-field records. One request is one session turn:
// 6 put_field and 6 get_field on seeded-random fields, then flush_pending(),
// driven by SurrogatePool::run_rounds. A pass is kRoundsPerPass rounds.
//
// Each pass reseeds the per-session scripts, so from the second pass on every
// pass issues the same operations against the same state and must reproduce
// the same virtual time, transport counters and read values exactly.
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "platform/surrogate_pool.hpp"
#include "probes.hpp"
#include "vm/klass.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace aide;

constexpr std::size_t kMembers = 4;
constexpr std::size_t kSessions = 64;
constexpr std::size_t kObjects = 8;
constexpr std::uint32_t kFields = 8;
constexpr std::uint32_t kOpsPerTurn = 12;  // 6 writes + 6 reads, then flush
constexpr std::size_t kRoundsPerPass = 16;

struct Script {
  std::vector<vm::ObjectRef> objs;
  Rng rng;
  std::uint64_t turn = 0;
  // The last value written to each (object, field): what a read must return.
  std::vector<vm::Value> shadow = std::vector<vm::Value>(kObjects * kFields);
};

// Everything one pass computed. Tracing must leave all of it unchanged.
struct PassOutput {
  SimDuration virt = 0;
  rpc::EndpointStats stats;
  std::uint64_t reads = 0;  // digest of every value read, in turn order
  friend bool operator==(const PassOutput&, const PassOutput&) = default;
};

// Counters snapshotted around a pass.
struct Snapshot {
  SimTime now = 0;
  rpc::EndpointStats stats;
  platform::ServerStats server;
  std::uint64_t vm_ops = 0, vm_remote_ops = 0, allocations = 0, gc_cycles = 0;
  std::uint64_t net_messages = 0, net_bytes = 0;
};

class Bench {
 public:
  Bench(std::uint64_t seed, Outcome& out) : seed_(seed), out_(out) {
    auto reg = std::make_shared<vm::ClassRegistry>();
    vm::ClassBuilder cb("Rec");
    for (std::uint32_t f = 0; f < kFields; ++f) {
      std::string name(1, 'f');
      name += std::to_string(f);
      cb.field(name);
    }
    reg->register_class(cb.build());

    platform::PoolConfig pc;
    pc.members.resize(kMembers);
    for (platform::ServerConfig& m : pc.members) {
      m.max_sessions = kSessions / kMembers;
      // A field-only registry has no method IR for the startup gates.
      m.static_analysis = false;
      m.effect_verify = false;
    }
    pool_ = std::make_unique<platform::SurrogatePool>(reg, pc);

    scripts_.resize(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      out_.attempted += 1;
      platform::Session* s = pool_->open_session();
      if (s == nullptr || s->id().value() != i) {
        out_.failed += 1;
        continue;
      }
      sessions_.push_back(s);
      std::vector<ObjectId> ids;
      for (std::size_t o = 0; o < kObjects; ++o) {
        const vm::ObjectRef obj = s->client().new_object("Rec");
        s->client().add_root(obj);
        scripts_[i].objs.push_back(obj);
        ids.push_back(obj.id);
      }
      if (!s->offload(ids)) out_.failed += 1;
    }
  }

  // One pass: kRoundsPerPass rounds over every session. With a recorder the
  // pass is traced; `turn_wall_us` (optional) collects per-turn wall times.
  PassOutput pass(SpanRecorder* rec, Reservoir* turn_wall_us,
                  double* dispatch_s) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      scripts_[i].rng.reseed(mix(seed_, 0x5E55'0000 + i));
      scripts_[i].turn = 0;
    }
    std::vector<std::unique_ptr<TimingPeer>> peers;
    if (rec != nullptr) {
      for (platform::Session* s : sessions_) {
        peers.push_back(std::make_unique<TimingPeer>(s->client_endpoint(), *rec));
        s->client().set_peer(peers.back().get());
        peers.push_back(std::make_unique<TimingPeer>(s->surrogate_endpoint(), *rec));
        s->surrogate().set_peer(peers.back().get());
      }
    }

    PassOutput po;
    reads_ = 0;
    const platform::SurrogateServer::TurnFn turn = [&](platform::Session& s) {
      const auto t0 = WallClock::now();
      {
        Span vm_span(rec, Layer::vm);
        run_turn(s, rec);
      }
      if (turn_wall_us != nullptr) turn_wall_us->add(seconds_since(t0) * 1e6);
      return platform::TurnOutcome::yielded;
    };
    const Snapshot before = snapshot();
    const auto t0 = WallClock::now();
    {
      Span dispatch(rec, Layer::platform_dispatch);
      pool_->run_rounds(kRoundsPerPass, turn);
    }
    if (dispatch_s != nullptr) *dispatch_s = seconds_since(t0);
    last_before_ = before;
    last_after_ = snapshot();
    po.virt = last_after_.now - before.now;
    po.stats = stats_minus(last_after_.stats, before.stats);
    po.reads = reads_;

    for (platform::Session* s : sessions_) {
      s->client().set_peer(&s->client_endpoint());
      s->surrogate().set_peer(&s->surrogate_endpoint());
    }
    return po;
  }

  [[nodiscard]] const Snapshot& last_before() const { return last_before_; }
  [[nodiscard]] const Snapshot& last_after() const { return last_after_; }

 private:
  void run_turn(platform::Session& s, SpanRecorder* rec) {
    Script& sc = scripts_[s.id().value()];
    vm::Vm& client = s.client();
    out_.attempted += 1;
    bool ok = true;
    for (std::uint32_t op = 0; op < kOpsPerTurn; ++op) {
      const std::size_t o = sc.rng.next_below(kObjects);
      const auto f = static_cast<std::uint32_t>(sc.rng.next_below(kFields));
      vm::Value& expect = sc.shadow[o * kFields + f];
      if ((op & 1) == 0) {
        const vm::Value v{static_cast<std::int64_t>(
            mix(seed_, sc.turn * kOpsPerTurn + op) >> 1)};
        client.put_field(sc.objs[o], FieldId{f}, v);
        expect = v;
      } else {
        const vm::Value got = client.get_field(sc.objs[o], FieldId{f});
        if (!(got == expect)) ok = false;
        reads_ = mix(reads_, got.is_int() ? static_cast<std::uint64_t>(got.as_int()) : 0);
      }
    }
    {
      Span flush(rec, Layer::rpc);
      s.client_endpoint().flush_pending();
    }
    sc.turn += 1;
    if (!ok) out_.failed += 1;
  }

  Snapshot snapshot() {
    Snapshot snap;
    snap.now = pool_->clock().now();
    for (std::size_t m = 0; m < pool_->size(); ++m) {
      snap.stats += pool_->member(m).aggregate_stats();
    }
    snap.server = pool_->aggregate_server_stats();
    for (platform::Session* s : sessions_) {
      for (const vm::VmStats* v : {&s->client().stats(), &s->surrogate().stats()}) {
        snap.vm_ops += v->invocations + v->field_accesses;
        snap.vm_remote_ops += v->remote_invocations + v->remote_field_accesses;
        snap.allocations += v->allocations;
        snap.gc_cycles += v->gc_cycles;
      }
      snap.net_messages += s->link().stats().messages;
      snap.net_bytes += s->link().stats().bytes;
    }
    return snap;
  }

  std::uint64_t seed_;
  Outcome& out_;
  std::unique_ptr<platform::SurrogatePool> pool_;
  std::vector<platform::Session*> sessions_;
  std::vector<Script> scripts_;
  std::uint64_t reads_ = 0;
  Snapshot last_before_, last_after_;
};

}  // namespace

Outcome run_pool_sessions(const Options& opt) {
  Outcome out;
  std::unique_ptr<Bench> bench;
  PassOutput ref;
  // Set-up ends with two warm-up passes: the first reads fields nothing has
  // written yet, so the second is the first that every later pass repeats.
  timed_setup(out, opt.setup_reps > 0 ? opt.setup_reps : 15, [&] {
    bench.reset();
    bench = std::make_unique<Bench>(opt.seed, out);
    bench->pass(nullptr, nullptr, nullptr);
    ref = bench->pass(nullptr, nullptr, nullptr);
  });
  out.virt_ns = ref.virt;
  out.digest = mix(mix(ref.reads, ref.stats.ops_sent), ref.stats.bytes_sent);
  if (opt.emit_reference) return out;

  const auto check = [&](const PassOutput& po) {
    out.attempted += 1;
    if (!(po == ref)) out.failed += 1;
  };

  if (!opt.trace) {
    Reservoir wall_us;
    HostSpeed host;
    const auto t_start = WallClock::now();
    while (seconds_since(t_start) < opt.seconds) {
      double wall_s = 0.0;
      check(bench->pass(nullptr, &wall_us, &wall_s));
      host.add(0, wall_s);
    }
    const double turns_per_s =
        add_request_metrics(out, wall_us, host, 1, kSessions * kRoundsPerPass);
    out.metrics.push_back({"turns_per_s", turns_per_s, "1/s", false});
    out.metrics.push_back({"turn_wall_us_p50", percentile(wall_us.samples(), 50.0), "us", false});
    out.metrics.push_back({"turn_wall_us_p99", percentile(wall_us.samples(), 99.0), "us", false});
    out.metrics.push_back({"virt_s", sim_to_seconds(out.virt_ns), "s", false});
    return out;
  }

  // Traced run: untraced and traced passes alternate on the same pool.
  SpanRecorder rec(200000);
  double untraced_s = 0.0, traced_s = 0.0, passes = 0.0;
  std::uint64_t turns = 0, rounds = 0, vm_ops = 0, vm_remote = 0, allocs = 0,
                gcs = 0, messages = 0, bytes = 0;
  rpc::EndpointStats rpc_stats;
  const auto t_start = WallClock::now();
  while (passes == 0 || seconds_since(t_start) < opt.seconds) {
    double wall_s = 0.0;
    check(bench->pass(nullptr, nullptr, &wall_s));
    untraced_s += wall_s;
    check(bench->pass(&rec, nullptr, &wall_s));
    traced_s += wall_s;
    const Snapshot& b = bench->last_before();
    const Snapshot& a = bench->last_after();
    rpc_stats += stats_minus(a.stats, b.stats);
    turns += a.server.turns - b.server.turns;
    rounds += a.server.rounds - b.server.rounds;
    vm_ops += a.vm_ops - b.vm_ops;
    vm_remote += a.vm_remote_ops - b.vm_remote_ops;
    allocs += a.allocations - b.allocations;
    gcs += a.gc_cycles - b.gc_cycles;
    messages += a.net_messages - b.net_messages;
    bytes += a.net_bytes - b.net_bytes;
    passes += 1;
  }
  auto& L = out.layers;
  const SpanCost cost = calibrate_span_cost();
  const auto self_ns = [&](Layer l) { return rec.totals().corrected_self_ns(l, cost); };
  const auto ms = [&](Layer l) { return self_ns(l) / 1e6 / passes; };
  const auto per = [&](std::uint64_t v) { return static_cast<double>(v) / passes; };
  L["vm.self_wall_ms"] = ms(Layer::vm);
  L["vm.ops"] = per(vm_ops);
  L["vm.ns_per_op"] = ratio(self_ns(Layer::vm), static_cast<double>(vm_ops));
  L["vm.remote_op_share"] = ratio(static_cast<double>(vm_remote), static_cast<double>(vm_ops));
  L["vm.allocations"] = per(allocs);
  L["vm.gc_cycles"] = per(gcs);
  const double calls = static_cast<double>(rec.totals().count(Layer::rpc));
  L["rpc.self_wall_ms"] = ms(Layer::rpc);
  L["rpc.calls"] = calls / passes;
  L["rpc.ns_per_op"] = ratio(self_ns(Layer::rpc), calls);
  add_rpc_counters(out, rpc_stats, passes);
  L["netsim.messages"] = per(messages);
  L["netsim.bytes"] = per(bytes);
  L["platform.dispatch_self_wall_ms"] = ms(Layer::platform_dispatch);
  L["platform.turns"] = per(turns);
  L["platform.rounds"] = per(rounds);
  add_trace_totals(out, rec, cost, passes, traced_s, untraced_s);
  return out;
}

}  // namespace perfbench
