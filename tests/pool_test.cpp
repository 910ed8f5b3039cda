// Surrogate-pool tests: deterministic placement policy, per-member busy time
// and failover onto the next-best surviving peer with the client's state
// intact.
//
// The placement policy must be a pure function of the pool's observable
// state (score arithmetic pinned against the documented formula, ties to the
// lowest index), so two identically configured pools driven by the same
// admission/turn/death sequence must agree byte-for-byte on every placement,
// every replacement record, the shared clock, and the aggregated counters.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/simclock.hpp"
#include "netsim/link.hpp"
#include "platform/surrogate_pool.hpp"
#include "vm/klass.hpp"
#include "vm/vm.hpp"

using namespace aide;

namespace {

std::shared_ptr<vm::ClassRegistry> rec_registry() {
  auto reg = std::make_shared<vm::ClassRegistry>();
  vm::ClassBuilder cb("Rec");
  for (int f = 0; f < 4; ++f) cb.field("f" + std::to_string(f));
  reg->register_class(cb.build());
  return reg;
}

// Rec plus Box, whose touch() bumps its Rec's first field: every touch is a
// Box -> Rec access, so the session monitor's graph records an edge.
std::shared_ptr<vm::ClassRegistry> box_registry() {
  auto reg = rec_registry();
  reg->register_class(
      vm::ClassBuilder("Box")
          .field("rec")
          .method("touch",
                  [](vm::Vm& vm, vm::ObjectRef self, auto) -> vm::Value {
                    const vm::ObjectRef rec =
                        vm.get_field(self, FieldId{0}).as_ref();
                    const vm::Value n = vm.get_field(rec, FieldId{0});
                    const std::int64_t v = n.is_int() ? n.as_int() : 0;
                    vm.put_field(rec, FieldId{0}, vm::Value{v + 1});
                    return vm::Value{v + 1};
                  })
          .build());
  return reg;
}

platform::ServerConfig member_config(double speedup,
                                     std::size_t max_sessions = 64) {
  platform::ServerConfig cfg;
  // Field-only registry: the shared gates are covered by the fleet tests.
  cfg.static_analysis = false;
  cfg.effect_verify = false;
  cfg.surrogate_speedup = speedup;
  cfg.max_sessions = max_sessions;
  return cfg;
}

platform::PoolConfig pool_config(std::initializer_list<double> speedups,
                                 std::size_t max_sessions = 64) {
  platform::PoolConfig pc;
  for (const double s : speedups) {
    pc.members.push_back(member_config(s, max_sessions));
  }
  return pc;
}

// One turn's worth of real session work: allocate and offload a Rec, so the
// turn moves bytes through the session's link (advancing the shared clock
// and priming the RTT estimator) instead of idling.
platform::TurnOutcome busy_turn(platform::Session& s, std::uint64_t quota) {
  const vm::ObjectRef o = s.client().new_object("Rec");
  s.client().add_root(o);
  const ObjectId ids[] = {o.id};
  EXPECT_TRUE(s.offload(ids));
  s.driver_state += 1;
  return s.driver_state >= quota ? platform::TurnOutcome::finished
                                 : platform::TurnOutcome::yielded;
}

// --- placement policy --------------------------------------------------------

TEST(PoolPlacement, ScoreMatchesTheDocumentedFormula) {
  platform::SurrogatePool pool(rec_registry(), pool_config({2.0, 8.0, 4.0}));
  // Fresh pool: no sessions, no RTT samples. Score reduces to
  // 1/speedup + null-RTT seconds.
  const double link_s =
      sim_to_seconds(netsim::LinkParams::wavelan().null_rtt);
  EXPECT_DOUBLE_EQ(pool.placement_score(0), 1.0 / 2.0 + link_s);
  EXPECT_DOUBLE_EQ(pool.placement_score(1), 1.0 / 8.0 + link_s);
  EXPECT_DOUBLE_EQ(pool.placement_score(2), 1.0 / 4.0 + link_s);
  EXPECT_EQ(pool.best_member(), 1u);

  // Admitting on the best member moves only its load term: +1/max_sessions.
  platform::Session* s = pool.open_session();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(pool.member_of(s->id()), 1u);
  EXPECT_DOUBLE_EQ(pool.placement_score(1), 1.0 / 8.0 + link_s + 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(pool.placement_score(0), 1.0 / 2.0 + link_s);
}

TEST(PoolPlacement, EqualMembersSpreadRoundRobin) {
  // Identical members tie on cpu+link, so the load term decides and ties
  // break to the lowest index: admissions interleave 0,1,2,3,0,1,2,3.
  platform::SurrogatePool pool(rec_registry(),
                               pool_config({3.0, 3.0, 3.0, 3.0}));
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t want = 0; want < pool.size(); ++want) {
      platform::Session* s = pool.open_session();
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(pool.member_of(s->id()), want);
    }
  }
  EXPECT_EQ(pool.session_count(), 8u);
  EXPECT_EQ(pool.stats().placements, 8u);
}

TEST(PoolPlacement, FullMemberScoresInfinityAndAdmissionRejects) {
  platform::SurrogatePool pool(rec_registry(), pool_config({3.0}, 1));
  ASSERT_NE(pool.open_session(), nullptr);
  EXPECT_EQ(pool.placement_score(0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(pool.best_member(), pool.size());
  EXPECT_EQ(pool.open_session(), nullptr);
  EXPECT_EQ(pool.stats().admission_rejections, 1u);
}

TEST(PoolPlacement, MembersShareThePoolClock) {
  platform::SurrogatePool pool(rec_registry(), pool_config({2.0, 4.0}));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(&pool.member(i).clock(), &pool.clock());
  }
}

// --- busy time ---------------------------------------------------------------

constexpr std::uint32_t kScriptSessions = 16;
constexpr std::size_t kScriptRecs = 4;
constexpr std::size_t kScriptTurns = 6;

// Opens kScriptSessions sessions on `host` (a SurrogateServer or a
// SurrogatePool), each offloading kScriptRecs records, then runs
// kScriptTurns rounds in which session i writes and reads back 1 + i % 3
// fields and flushes. Returns every session's service time, by id.
template <class Host>
std::vector<SimDuration> run_scripted(Host& host) {
  std::vector<std::vector<vm::ObjectRef>> recs(kScriptSessions);
  for (std::uint32_t i = 0; i < kScriptSessions; ++i) {
    platform::Session* s = host.open_session();
    EXPECT_NE(s, nullptr);
    if (s == nullptr) return {};
    std::vector<ObjectId> ids;
    for (std::size_t o = 0; o < kScriptRecs; ++o) {
      recs[i].push_back(s->client().new_object("Rec"));
      s->client().add_root(recs[i].back());
      ids.push_back(recs[i].back().id);
    }
    EXPECT_TRUE(s->offload(ids));
  }
  host.run_rounds(kScriptTurns, [&](platform::Session& s) {
    const std::uint32_t id = s.id().value();
    for (std::uint32_t op = 0; op <= id % 3; ++op) {
      const vm::ObjectRef rec = recs[id][(s.driver_state + op) % kScriptRecs];
      const FieldId f{op};
      const vm::Value v{static_cast<std::int64_t>(s.driver_state * 10 + op)};
      s.client().put_field(rec, f, v);
      EXPECT_EQ(s.client().get_field(rec, f), v);
    }
    s.client_endpoint().flush_pending();
    s.driver_state += 1;
    return platform::TurnOutcome::yielded;
  });
  std::vector<SimDuration> service;
  for (std::uint32_t i = 0; i < kScriptSessions; ++i) {
    service.push_back(host.find_session(SessionId{i})->service_time());
  }
  return service;
}

// bench_fleet's pool table rests on this: a turn takes the same virtual time
// on a lone server, on a one-member pool and on any member of a larger pool,
// so a member's busy time is its sessions' summed service time and members
// do not slow one another.
TEST(PoolBusyTime, ServiceTimesMatchALoneServer) {
  platform::SurrogateServer server(rec_registry(), member_config(3.0));
  const std::vector<SimDuration> lone = run_scripted(server);
  platform::SurrogatePool one(rec_registry(), pool_config({3.0}));
  const std::vector<SimDuration> single = run_scripted(one);
  platform::SurrogatePool four(rec_registry(),
                               pool_config({3.0, 3.0, 3.0, 3.0}));
  const std::vector<SimDuration> pooled = run_scripted(four);

  ASSERT_EQ(lone.size(), kScriptSessions);
  EXPECT_EQ(single, lone);
  EXPECT_EQ(pooled, lone);
  EXPECT_EQ(one.clock().now(), server.clock().now());

  std::vector<SimDuration> busy(four.size(), 0);
  SimDuration total = 0;
  for (std::uint32_t i = 0; i < kScriptSessions; ++i) {
    busy[four.member_of(SessionId{i})] += pooled[i];
    total += lone[i];
  }
  SimDuration busy_sum = 0;
  for (const SimDuration b : busy) {
    EXPECT_GT(b, 0);
    busy_sum += b;
  }
  EXPECT_EQ(busy_sum, total);
}

// --- failover ----------------------------------------------------------------

TEST(PoolFailover, SessionsMoveToTheNextBestPeer) {
  // Member 1 is fastest and takes every admission; member 2 is the clear
  // runner-up. Killing 1 must re-admit every victim on 2 — never back to
  // the client while a peer remains — in ascending old-id order, with the
  // driver slot carried over.
  platform::SurrogatePool pool(rec_registry(), pool_config({2.0, 8.0, 4.0}));
  for (int i = 0; i < 3; ++i) {
    platform::Session* s = pool.open_session();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(pool.member_of(s->id()), 1u);
    s->driver_state = 100 + s->id().value();
  }

  const auto moved = pool.kill_surrogate(1);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_FALSE(pool.alive(1));
  EXPECT_EQ(pool.alive_count(), 2u);
  for (std::size_t i = 0; i < moved.size(); ++i) {
    const platform::Replacement& r = moved[i];
    EXPECT_EQ(r.old_id.value(), i);  // ascending old-id order
    EXPECT_EQ(r.from, 1u);
    EXPECT_EQ(r.to, 2u) << "next-best surviving peer";
    EXPECT_LT(r.to, pool.size()) << "no local fallback while peers remain";
    EXPECT_GT(r.new_id.value(), 2u) << "fresh pool-unique id";

    platform::Session* fresh = pool.find_session(r.new_id);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh->driver_state, 100 + r.old_id.value());
    EXPECT_EQ(pool.find_session(r.old_id), nullptr);
  }
  EXPECT_EQ(pool.session_count(), 3u);
  EXPECT_EQ(pool.stats().deaths, 1u);
  EXPECT_EQ(pool.stats().replacements, 3u);
}

TEST(PoolFailover, VictimsWithNoFreePeerSlotAreClosed) {
  // Two members, two slots each, all four full. Killing member 0 leaves its
  // victims nowhere to go: they are reported with to == size() and closed.
  platform::SurrogatePool pool(rec_registry(), pool_config({3.0, 3.0}, 2));
  for (int i = 0; i < 4; ++i) ASSERT_NE(pool.open_session(), nullptr);
  ASSERT_EQ(pool.session_count(), 4u);

  const auto moved = pool.kill_surrogate(0);
  ASSERT_EQ(moved.size(), 2u);
  for (const platform::Replacement& r : moved) {
    EXPECT_EQ(r.from, 0u);
    EXPECT_EQ(r.to, pool.size());
  }
  EXPECT_EQ(pool.session_count(), 2u);
  EXPECT_EQ(pool.stats().replacements, 0u);
}

// The monitor sees every allocation on both VMs (migration moves bytes, it
// allocates nothing), so its components' memory must add up to the bytes
// the two heaps hold.
void expect_memory_accounted(platform::Session& s) {
  EXPECT_EQ(s.exec_monitor().graph().total_mem_bytes(),
            s.client().heap().used() + s.surrogate().heap().used());
}

TEST(PoolFailover, ReplacementsKeepTheClientsOffloadedState) {
  // Member 1 is fastest and takes all three sessions. Each session offloads
  // four records, then every turn reads back what the previous turn wrote
  // and writes fresh values (left queued in the write-behind batch). Member
  // 1 dies between rounds: every read after the re-placement must still see
  // the last value written before the kill.
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kRecs = 4;
  struct Script {
    std::vector<vm::ObjectRef> recs;
    std::vector<std::int64_t> last = std::vector<std::int64_t>(kRecs);
  };
  std::vector<Script> scripts(kSessions);
  platform::SurrogatePool pool(rec_registry(), pool_config({2.0, 8.0}));
  for (std::size_t i = 0; i < kSessions; ++i) {
    platform::Session* s = pool.open_session();
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(pool.member_of(s->id()), 1u);
    s->driver_state = i;  // the script index rides along on failover
    std::vector<ObjectId> ids;
    for (std::size_t k = 0; k < kRecs; ++k) {
      const vm::ObjectRef o = s->client().new_object("Rec");
      s->client().add_root(o);
      s->client().put_field(o, FieldId{0}, vm::Value{std::int64_t{0}});
      scripts[i].recs.push_back(o);
      ids.push_back(o.id);
    }
    ASSERT_TRUE(s->offload(ids));
    EXPECT_EQ(s->client().heap().used(), 0);
  }

  std::int64_t next = 1;
  std::size_t reads = 0;
  const auto turn = [&](platform::Session& s) {
    Script& sc = scripts[s.driver_state];
    for (std::size_t k = 0; k < kRecs; ++k) {
      EXPECT_EQ(s.client().get_field(sc.recs[k], FieldId{0}).as_int(),
                sc.last[k]);
      reads += 1;
      sc.last[k] = next++;
      s.client().put_field(sc.recs[k], FieldId{0}, vm::Value{sc.last[k]});
    }
    return platform::TurnOutcome::yielded;
  };
  pool.run_rounds(3, turn);

  std::vector<const vm::Vm*> devices;
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    platform::Session* s = pool.find_session(SessionId{id});
    EXPECT_GT(s->client_endpoint().pending_ops(), 0u);
    devices.push_back(&s->client());
  }
  const SimTime killed_at = pool.clock().now();
  const auto moved = pool.kill_surrogate(1);
  ASSERT_EQ(moved.size(), kSessions);
  // Each victim's reclaim charged the recovery channel on the pool clock.
  EXPECT_GE(pool.clock().now() - killed_at,
            static_cast<SimDuration>(kSessions) *
                platform::kRecoveryLatency);
  std::vector<platform::Session*> fresh;
  for (const platform::Replacement& r : moved) {
    ASSERT_EQ(r.to, 0u);
    platform::Session* s = pool.find_session(r.new_id);
    ASSERT_NE(s, nullptr);
    fresh.push_back(s);
    // The replacement adopted the victim's device, heap and all.
    EXPECT_EQ(&s->client(), devices[r.old_id.value()]);
    EXPECT_GT(s->client().heap().used(), 0);
    EXPECT_EQ(s->surrogate().heap().used(), 0);
    EXPECT_TRUE(s->link_state() == platform::LinkState::connected);
    for (const vm::ObjectRef& o : scripts[s->driver_state].recs) {
      EXPECT_TRUE(s->client().is_local(o.id));
    }
    expect_memory_accounted(*s);
  }

  pool.run_rounds(2, turn);
  // Re-offload onto the new member, keep going, then collect.
  for (platform::Session* s : fresh) {
    std::vector<ObjectId> ids;
    for (const vm::ObjectRef& o : scripts[s->driver_state].recs) {
      ids.push_back(o.id);
    }
    EXPECT_TRUE(s->offload(ids));
  }
  pool.run_rounds(2, turn);
  for (platform::Session* s : fresh) {
    s->client_endpoint().flush_pending();
    (void)s->client().collect_garbage();
    EXPECT_GT(s->surrogate().heap().used(), 0);
    expect_memory_accounted(*s);
  }
  EXPECT_EQ(reads, kSessions * kRecs * 7);
}

std::vector<graph::ComponentKey> node_keys(platform::Session& s) {
  const graph::ExecGraph& g = s.exec_monitor().graph();
  std::vector<graph::ComponentKey> keys;
  for (graph::ExecGraph::NodeIndex i = 0; i < g.node_count(); ++i) {
    keys.push_back(g.key_of(i));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(PoolFailover, ReplacementRelearnsTheEdgeHistory) {
  // The replacement's monitor learns the device's objects and memory in one
  // heap pass but starts with no edges; the turns after the failover teach
  // it the Box -> Rec edge again. Member 1 is fastest and hosts both
  // sessions; each offloads its Rec and touches it from a device-side Box
  // every turn.
  constexpr std::size_t kSessions = 2;
  platform::SurrogatePool pool(box_registry(), pool_config({2.0, 8.0}));
  std::vector<vm::ObjectRef> boxes;
  for (std::size_t i = 0; i < kSessions; ++i) {
    platform::Session* s = pool.open_session();
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(pool.member_of(s->id()), 1u);
    s->driver_state = i;  // the box index rides along on failover
    const vm::ObjectRef box = s->client().new_object("Box");
    const vm::ObjectRef rec = s->client().new_object("Rec");
    s->client().add_root(box);
    s->client().put_field(box, FieldId{0}, vm::Value{rec});
    boxes.push_back(box);
    const ObjectId ids[] = {rec.id};
    ASSERT_TRUE(s->offload(ids));
  }
  const auto turn = [&](platform::Session& s) {
    (void)s.client().call(boxes[s.driver_state], "touch");
    return platform::TurnOutcome::yielded;
  };
  pool.run_rounds(3, turn);

  std::vector<std::vector<graph::ComponentKey>> keys_before;
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    platform::Session* s = pool.find_session(SessionId{id});
    ASSERT_NE(s, nullptr);
    EXPECT_GT(s->exec_monitor().graph().edge_count(), 0u);
    keys_before.push_back(node_keys(*s));
    EXPECT_EQ(keys_before.back().size(), 2u);  // Box and Rec
  }

  const auto moved = pool.kill_surrogate(1);
  ASSERT_EQ(moved.size(), kSessions);
  std::vector<platform::Session*> fresh;
  for (const platform::Replacement& r : moved) {
    ASSERT_EQ(r.to, 0u);
    platform::Session* s = pool.find_session(r.new_id);
    ASSERT_NE(s, nullptr);
    fresh.push_back(s);
    EXPECT_EQ(node_keys(*s), keys_before[r.old_id.value()]);
    expect_memory_accounted(*s);
    EXPECT_EQ(s->exec_monitor().graph().edge_count(), 0u);
  }

  pool.run_rounds(2, turn);
  for (platform::Session* s : fresh) {
    EXPECT_GT(s->exec_monitor().graph().edge_count(), 0u);
    expect_memory_accounted(*s);
  }
}

// --- whole-pool determinism --------------------------------------------------

// Replays one fixed scenario — admissions, busy turns, a surrogate death
// mid-run, more turns — and serializes everything observable.
struct ScenarioTrail {
  std::vector<std::uint64_t> events;

  void push(std::uint64_t v) { events.push_back(v); }

  bool operator==(const ScenarioTrail&) const = default;
};

ScenarioTrail run_scenario() {
  platform::SurrogatePool pool(rec_registry(),
                               pool_config({2.0, 6.0, 4.0, 3.0}, 8));
  ScenarioTrail trail;

  std::vector<SessionId> opened;
  for (int i = 0; i < 6; ++i) {
    platform::Session* s = pool.open_session();
    if (s == nullptr) continue;
    opened.push_back(s->id());
    trail.push(s->id().value());
    trail.push(pool.member_of(s->id()));
  }

  const auto turn = [](platform::Session& s) { return busy_turn(s, 6); };
  pool.run_rounds(2, turn);

  const std::size_t victim = pool.member_of(opened.front());
  for (const platform::Replacement& r : pool.kill_surrogate(victim)) {
    trail.push(r.old_id.value());
    trail.push(r.new_id.value());
    trail.push(r.from);
    trail.push(r.to);
  }
  pool.run_rounds(2, turn);

  const platform::ServerStats agg = pool.aggregate_server_stats();
  for (const std::uint64_t v :
       std::bit_cast<std::array<std::uint64_t,
                                sizeof(platform::ServerStats) /
                                    sizeof(std::uint64_t)>>(agg)) {
    trail.push(v);
  }
  trail.push(pool.stats().placements);
  trail.push(pool.stats().replacements);
  trail.push(static_cast<std::uint64_t>(pool.clock().now()));
  return trail;
}

TEST(PoolDeterminism, IdenticalRunsProduceIdenticalTrails) {
  const ScenarioTrail a = run_scenario();
  const ScenarioTrail b = run_scenario();
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
