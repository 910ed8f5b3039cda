// Multi-session surrogate server tests.
//
// Covers the session-isolation guarantees (cross-session references rejected
// at the refmap boundary, epoch fencing scoped to one session, per-session
// stats namespacing), the admission/budget layer, deterministic round-robin
// scheduling and a session's exact parity with a lone Platform on the five
// paper apps.
#include <array>
#include <bit>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "common/error.hpp"
#include "platform/surrogate_server.hpp"
#include "rpc/refmap.hpp"
#include "tests/test_util.hpp"
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

platform::ServerConfig script_config() {
  platform::ServerConfig cfg;
  // The Rec registry is field-only (no method IR); the gates-over-a-real-
  // registry path is covered by SharedGatesRunOnce below.
  cfg.static_analysis = false;
  cfg.effect_verify = false;
  return cfg;
}

// Opens a session and offloads `count` fresh Rec objects; returns their refs.
std::vector<vm::ObjectRef> offload_recs(platform::Session& s,
                                        std::size_t count) {
  std::vector<vm::ObjectRef> objs;
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < count; ++i) {
    const vm::ObjectRef o = s.client().new_object("Rec");
    s.client().add_root(o);
    objs.push_back(o);
    ids.push_back(o.id);
  }
  EXPECT_TRUE(s.offload(ids));
  return objs;
}

// --- refmap boundary ---------------------------------------------------------

TEST(FleetRefMap, CrossSessionHandleRejected) {
  rpc::RefMap a;
  rpc::RefMap b;
  a.set_handle_namespace(1);
  b.set_handle_namespace(2);

  const ObjectId oa{(std::uint64_t{7} << 48) | 1};
  const ObjectId ob{(std::uint64_t{9} << 48) | 1};
  const ExportHandle ha = a.export_object(oa);
  const ExportHandle hb = b.export_object(ob);

  // Same low bits, different namespace: without namespacing hb's low bits
  // would wrongly resolve in a.
  EXPECT_EQ(ha.value() & 0xFFFFFFFFFFFFull, hb.value() & 0xFFFFFFFFFFFFull);
  EXPECT_EQ(rpc::RefMap::namespace_of(ha), 1u);
  EXPECT_EQ(rpc::RefMap::namespace_of(hb), 2u);

  EXPECT_EQ(a.resolve_export(ha), oa);
  EXPECT_THROW((void)a.resolve_export(hb), VmError);
  EXPECT_THROW((void)b.resolve_export(ha), VmError);
}

TEST(FleetRefMap, DefaultNamespaceIsLegacyPlainHandles) {
  rpc::RefMap m;
  const ObjectId id{(std::uint64_t{3} << 48) | 5};
  const ExportHandle h = m.export_object(id);
  EXPECT_EQ(h.value(), 1u);  // no namespace bits: pre-fleet wire handles
  EXPECT_EQ(m.resolve_export(h), id);
}

// --- session isolation on a live server --------------------------------------

TEST(FleetServer, SessionsSeeOnlyTheirOwnValues) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s0 = server.open_session();
  platform::Session* s1 = server.open_session();
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);

  const auto o0 = offload_recs(*s0, 2);
  const auto o1 = offload_recs(*s1, 2);

  s0->client().put_field(o0[0], FieldId{0}, vm::Value{std::int64_t{111}});
  s1->client().put_field(o1[0], FieldId{0}, vm::Value{std::int64_t{222}});
  s0->client_endpoint().flush_pending();
  s1->client_endpoint().flush_pending();

  EXPECT_EQ(s0->client().get_field(o0[0], FieldId{0}).as_int(), 111);
  EXPECT_EQ(s1->client().get_field(o1[0], FieldId{0}).as_int(), 222);
}

TEST(FleetServer, EpochBumpDoesNotFenceNeighborSession) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s0 = server.open_session();
  platform::Session* s1 = server.open_session();
  const auto o0 = offload_recs(*s0, 2);
  const auto o1 = offload_recs(*s1, 2);
  (void)o1;

  const std::uint32_t epoch1_before = s1->client_endpoint().epoch();

  // Session 0 migrates again (a second batch), bumping *its* epoch.
  std::vector<ObjectId> more;
  const vm::ObjectRef extra = s0->client().new_object("Rec");
  s0->client().add_root(extra);
  more.push_back(extra.id);
  EXPECT_TRUE(s0->offload(more));
  EXPECT_GT(s0->client_endpoint().epoch(), 1u);

  // Session 1's fencing state is untouched and its traffic flows clean.
  EXPECT_EQ(s1->client_endpoint().epoch(), epoch1_before);
  s1->client().put_field(o1[1], FieldId{1}, vm::Value{std::int64_t{77}});
  s1->client_endpoint().flush_pending();
  EXPECT_EQ(s1->client().get_field(o1[1], FieldId{1}).as_int(), 77);
  const rpc::EndpointStats st = platform::SurrogateServer::session_stats(*s1);
  EXPECT_EQ(st.stale_frames_fenced, 0u);
  EXPECT_EQ(st.aborted_rpcs, 0u);
}

// --- admission + budgets -----------------------------------------------------

TEST(FleetServer, AdmissionCapRefusesAndFreedSlotReadmits) {
  platform::ServerConfig cfg = script_config();
  cfg.max_sessions = 2;
  platform::SurrogateServer server(rec_registry(), cfg);

  platform::Session* a = server.open_session();
  platform::Session* b = server.open_session();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(server.open_session(), nullptr);
  EXPECT_EQ(server.stats().admission_rejections, 1u);
  EXPECT_EQ(server.session_count(), 2u);

  server.close_session(a->id());
  EXPECT_EQ(server.session_count(), 1u);
  platform::Session* c = server.open_session();
  ASSERT_NE(c, nullptr);
  // Session ids are never reused even when slots are.
  EXPECT_EQ(c->id().value(), 2u);
}

TEST(FleetServer, OffloadOverALostLinkRunsThePeerLostTransition) {
  platform::ServerConfig cfg = script_config();
  cfg.fault_plan.dead_after = 0;  // the link is dead from the start
  platform::SurrogateServer server(rec_registry(), cfg);
  platform::Session* s = server.open_session();

  const vm::ObjectRef o = s->client().new_object("Rec");
  s->client().add_root(o);
  std::vector<ObjectId> ids{o.id};
  EXPECT_FALSE(s->offload(ids));  // PeerUnavailable stays inside the turn
  EXPECT_TRUE(s->surrogate_dead());
  ASSERT_EQ(s->failures().size(), 1u);
  EXPECT_EQ(s->offloaded_bytes(), 0u);
  EXPECT_EQ(s->budget_refusals(), 0u);
  // The batch was reinstated: the object is still client-local and usable.
  EXPECT_TRUE(s->client().is_local(o.id));
  s->client().put_field(o, FieldId{0}, vm::Value{std::int64_t{9}});
  EXPECT_EQ(s->client().get_field(o, FieldId{0}).as_int(), 9);
  // With the surrogate gone, later offloads refuse without touching the link.
  EXPECT_FALSE(s->offload(ids));
  EXPECT_EQ(s->failures().size(), 1u);
}

TEST(FleetServer, OffloadedBytesBudgetRefusesWithoutSideEffects) {
  platform::ServerConfig cfg = script_config();
  cfg.budget.max_offloaded_bytes = 1;  // refuse any real batch
  platform::SurrogateServer server(rec_registry(), cfg);
  platform::Session* s = server.open_session();

  const vm::ObjectRef o = s->client().new_object("Rec");
  s->client().add_root(o);
  std::vector<ObjectId> ids{o.id};
  EXPECT_FALSE(s->offload(ids));
  EXPECT_EQ(s->budget_refusals(), 1u);
  EXPECT_EQ(s->offloaded_bytes(), 0u);
  // Nothing moved: the object is still client-local and fully usable.
  s->client().put_field(o, FieldId{0}, vm::Value{std::int64_t{5}});
  EXPECT_EQ(s->client().get_field(o, FieldId{0}).as_int(), 5);
  const rpc::EndpointStats st = platform::SurrogateServer::session_stats(*s);
  EXPECT_EQ(st.migrations_sent, 0u);
}

// The budget prices every offload, not only scripted ones: a policy offload
// through offload_now (the pipeline's own path) past max_offloaded_bytes is
// refused before anything moves.
TEST(FleetServer, OffloadedBytesBudgetRefusesPolicyOffloads) {
  platform::ServerConfig cfg;
  cfg.static_analysis = false;
  cfg.effect_verify = false;
  cfg.auto_offload = false;
  cfg.client_heap = 256 * 1024;
  cfg.budget.max_offloaded_bytes = 1;  // refuse any real batch
  platform::SurrogateServer server(test::make_test_registry(), cfg);
  platform::Session* s = server.open_session();
  vm::Vm& client = s->client();

  // A pinned anchor with some interaction history, then four 30 KiB arrays
  // the partitioner can free by offloading.
  const vm::ObjectRef device = client.new_object("Device");
  client.add_root(device);
  const vm::ObjectRef counter = client.new_object("Counter");
  client.add_root(counter);
  for (int i = 0; i < 4; ++i) {
    client.call(device, "beep");
    client.call(counter, "inc");
  }
  const vm::ObjectRef holder = client.new_ref_array(8);
  client.add_root(holder);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const vm::ObjectRef chunk = client.new_char_array(30 * 1024);
    client.put_field(holder, FieldId{i}, vm::Value{chunk});
  }

  EXPECT_FALSE(s->offload_now(std::int64_t{60 * 1024}).has_value());
  EXPECT_EQ(s->budget_refusals(), 1u);
  EXPECT_EQ(s->offloaded_bytes(), 0u);
  EXPECT_EQ(s->surrogate().heap().used(), 0);
  const rpc::EndpointStats st = platform::SurrogateServer::session_stats(*s);
  EXPECT_EQ(st.migrations_sent, 0u);
}

// The offloaded-bytes gauge reads what the surrogate holds: state that a
// pull-back brings home stops counting against the budget and the pool's
// load term.
TEST(FleetServer, OffloadedBytesFallWhenStateComesHome) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s = server.open_session();
  const std::vector<vm::ObjectRef> objs = offload_recs(*s, 8);
  ASSERT_GT(s->offloaded_bytes(), 0u);
  EXPECT_EQ(server.stats().offloaded_bytes, s->offloaded_bytes());

  EXPECT_TRUE(s->handle_peer_failure());
  for (const vm::ObjectRef& o : objs) EXPECT_TRUE(s->client().is_local(o.id));
  EXPECT_EQ(s->surrogate().heap().used(), 0);
  EXPECT_EQ(s->offloaded_bytes(), 0u);
  EXPECT_EQ(server.stats().offloaded_bytes, 0u);
}

// --- scheduling --------------------------------------------------------------

TEST(FleetServer, RoundRobinVisitsInSessionOrderAndClosesAtRoundEnd) {
  platform::SurrogateServer server(rec_registry(), script_config());
  server.open_session();
  server.open_session();
  server.open_session();

  std::vector<std::uint32_t> visits;
  const std::size_t rounds =
      server.run_rounds(3, [&](platform::Session& s) {
        visits.push_back(s.id().value());
        // Session 1 finishes on its first turn; it must still not perturb
        // round 1's visit order, and must be gone from round 2 on.
        if (s.id().value() == 1 && s.turns_taken() == 1) {
          return platform::TurnOutcome::finished;
        }
        return platform::TurnOutcome::yielded;
      });
  EXPECT_EQ(rounds, 3u);
  const std::vector<std::uint32_t> expected{0, 1, 2, 0, 2, 0, 2};
  EXPECT_EQ(visits, expected);
  EXPECT_EQ(server.session_count(), 2u);
  EXPECT_EQ(server.stats().sessions_closed, 1u);
}

// --- stats namespacing -------------------------------------------------------

TEST(FleetServer, SingleSessionAggregateEqualsSessionStats) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s = server.open_session();
  const auto objs = offload_recs(*s, 3);
  for (int i = 0; i < 10; ++i) {
    s->client().put_field(objs[static_cast<std::size_t>(i) % 3], FieldId{0},
                          vm::Value{std::int64_t{i}});
    s->client_endpoint().flush_pending();
    (void)s->client().get_field(objs[static_cast<std::size_t>(i) % 3],
                                FieldId{0});
  }

  const rpc::EndpointStats per = platform::SurrogateServer::session_stats(*s);
  const rpc::EndpointStats agg = server.aggregate_stats();
  EXPECT_EQ(per.rpcs_sent, agg.rpcs_sent);
  EXPECT_EQ(per.rpcs_served, agg.rpcs_served);
  EXPECT_EQ(per.bytes_sent, agg.bytes_sent);
  EXPECT_EQ(per.bytes_received, agg.bytes_received);
  EXPECT_EQ(per.ops_sent, agg.ops_sent);
  EXPECT_EQ(per.batches_sent, agg.batches_sent);
  EXPECT_EQ(per.batched_ops, agg.batched_ops);
  EXPECT_EQ(per.migrations_sent, agg.migrations_sent);
  EXPECT_EQ(per.retries, agg.retries);
  EXPECT_EQ(per.timeouts, agg.timeouts);
  EXPECT_GT(agg.rpcs_sent, 0u);
}

TEST(FleetServer, PerSessionStatsStayNamespaced) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s0 = server.open_session();
  platform::Session* s1 = server.open_session();
  const auto o0 = offload_recs(*s0, 1);
  offload_recs(*s1, 1);

  // Only session 0 sends data traffic.
  for (int i = 0; i < 5; ++i) {
    s0->client().put_field(o0[0], FieldId{0}, vm::Value{std::int64_t{i}});
    s0->client_endpoint().flush_pending();
  }
  const rpc::EndpointStats st0 =
      platform::SurrogateServer::session_stats(*s0);
  const rpc::EndpointStats st1 =
      platform::SurrogateServer::session_stats(*s1);
  EXPECT_GT(st0.ops_sent, 0u);
  EXPECT_EQ(st1.ops_sent, 0u);  // the neighbor's counters never move
  const rpc::EndpointStats agg = server.aggregate_stats();
  EXPECT_EQ(agg.ops_sent, st0.ops_sent + st1.ops_sent);
}

// --- shared startup gates ----------------------------------------------------

TEST(FleetServer, SharedGatesRunOncePerServer) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  apps::app_by_name("Tracer").register_classes(*reg);
  platform::ServerConfig cfg;  // gates on (the default)
  platform::SurrogateServer server(std::move(reg), cfg);

  ASSERT_TRUE(server.analysis_report().has_value());
  EXPECT_TRUE(server.analysis_report()->ok());
  ASSERT_TRUE(server.verify_report().has_value());

  // Admission after the gates is pure construction: no re-analysis, and
  // every session holds the server's reports and oracle themselves.
  for (int i = 0; i < 8; ++i) {
    const platform::Session* s = server.open_session();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(&s->analysis_report(), &server.analysis_report());
    EXPECT_EQ(&s->verify_report(), &server.verify_report());
    EXPECT_EQ(s->batch_safety(), server.batch_safety());
  }
  EXPECT_NE(server.batch_safety(), nullptr);
  EXPECT_EQ(server.stats().sessions_opened, 8u);
}

// --- a session is a Platform -------------------------------------------------

// Everything observable about one app run on a platform.
struct AppRun {
  std::uint64_t checksum = 0;
  SimDuration elapsed = 0;
  std::size_t offloads = 0;
  rpc::EndpointStats client;
  rpc::EndpointStats surrogate;
  netsim::LinkStats link;
};

AppRun run_app(platform::Platform& p, const apps::AppInfo& app) {
  AppRun r;
  r.checksum = app.run(p.client(), apps::AppParams{});
  r.elapsed = p.elapsed();
  r.offloads = p.offloads().size();
  r.client = p.client_endpoint().stats();
  r.surrogate = p.surrogate_endpoint().stats();
  r.link = p.link().stats();
  return r;
}

// EndpointStats is a flat array of uint64 counters (its own layout test).
using StatsWords = std::array<std::uint64_t, sizeof(rpc::EndpointStats) /
                                                 sizeof(std::uint64_t)>;

TEST(FleetServer, SessionRunsEachPaperAppExactlyLikeALonePlatform) {
  // A default session is a default Platform on the server clock: the same
  // monitor -> MINCUT -> migrate pipeline, only its node pair and handle
  // namespace differ, and neither reaches the wire's sizes or the app.
  std::size_t offloading_apps = 0;
  for (const apps::AppInfo& app : apps::all_apps()) {
    SCOPED_TRACE(app.name);
    auto reg = std::make_shared<vm::ClassRegistry>();
    app.register_classes(*reg);
    platform::Platform lone(reg);
    const AppRun want = run_app(lone, app);

    platform::SurrogateServer server(reg);
    platform::Session* s = server.open_session();
    ASSERT_NE(s, nullptr);
    const AppRun got = run_app(*s, app);

    EXPECT_EQ(got.checksum, want.checksum);
    EXPECT_EQ(got.elapsed, want.elapsed);
    EXPECT_EQ(got.offloads, want.offloads);
    EXPECT_EQ(std::bit_cast<StatsWords>(got.client),
              std::bit_cast<StatsWords>(want.client));
    EXPECT_EQ(std::bit_cast<StatsWords>(got.surrogate),
              std::bit_cast<StatsWords>(want.surrogate));
    EXPECT_EQ(got.link, want.link);
    if (got.offloads > 0) offloading_apps += 1;
  }
  EXPECT_GT(offloading_apps, 0u);
}

}  // namespace
