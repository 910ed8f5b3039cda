// The surrogate link state machine's transition table, cell by cell.
//
// link_step() is pure, so the whole table can be pinned without a VM or a
// clock. Each row names one (state, event) cell, the guards that cell
// branches on, and the step it must take; every other guard must not
// matter. LinkStateTableTest.RowsCoverEveryCellExactlyOnce proves the rows
// are exhaustive: each (state, event, guards) triple matches exactly one.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "platform/link_state.hpp"

namespace aide::platform {
namespace {

using A = LinkAction;
using E = LinkEvent;
using S = LinkState;

const char* const kStateNames[] = {"connected", "disconnected", "dead"};
const char* const kEventNames[] = {"gc_tick",         "op_tick",
                                   "peer_lost",       "probe_delivered",
                                   "reconcile_acked", "reconcile_unacked"};
const char* const kActionNames[] = {
    "none",  "heartbeat", "maintain",  "probe",  "sync",   "sync_probe",
    "hoard", "reclaim",   "reconcile", "retain", "resume", "readmit"};

constexpr S kStates[] = {S::connected, S::disconnected, S::dead};
constexpr E kEvents[] = {E::gc_tick,         E::op_tick,
                         E::peer_lost,       E::probe_delivered,
                         E::reconcile_acked, E::reconcile_unacked};

// Guard bits; a row pins the bits in `care` to `value`.
constexpr unsigned kArmed = 1;          // DisconnectPolicy::enabled
constexpr unsigned kSuspected = 2;      // the partition detector suspects
constexpr unsigned kReadmission = 4;    // ReadmissionPolicy::enabled
constexpr unsigned kReadmitCap = 8;     // kMaxReadmissions reached
constexpr unsigned kReconcileCap = 16;  // kMaxReconciles reached
constexpr unsigned kAllGuards = 32;

LinkGuards guards_of(unsigned bits) {
  LinkGuards g;
  g.disconnect_armed = (bits & kArmed) != 0;
  g.partition_suspected = (bits & kSuspected) != 0;
  g.readmission_enabled = (bits & kReadmission) != 0;
  g.readmissions_capped = (bits & kReadmitCap) != 0;
  g.reconciles_capped = (bits & kReconcileCap) != 0;
  return g;
}

struct Row {
  S state;
  E event;
  unsigned care;
  unsigned value;
  LinkStep expect;
  const char* why;
};

constexpr Row kRows[] = {
    // --- connected -----------------------------------------------------------
    {S::connected, E::gc_tick, 0, 0, {S::connected, A::maintain},
     "GC ticks run the heartbeat, the recall and the offload trigger"},
    {S::connected, E::op_tick, 0, 0, {S::connected, A::heartbeat},
     "op ticks run only the heartbeat (a no-op unless idle_after > 0)"},
    {S::connected, E::peer_lost, kArmed | kSuspected, kArmed | kSuspected,
     {S::disconnected, A::hoard},
     "an armed policy with a suspecting detector means a partition"},
    {S::connected, E::peer_lost, kArmed | kSuspected, kArmed,
     {S::dead, A::reclaim}, "no suspicion: the peer, not the link, is gone"},
    {S::connected, E::peer_lost, kArmed | kSuspected, kSuspected,
     {S::dead, A::reclaim}, "suspicion without the policy is still a death"},
    {S::connected, E::peer_lost, kArmed | kSuspected, 0, {S::dead, A::reclaim},
     "the default: teardown"},
    {S::connected, E::probe_delivered, 0, 0, {S::connected, A::none},
     "a connected platform never probes"},
    {S::connected, E::reconcile_acked, 0, 0, {S::connected, A::none},
     "nothing to reconcile"},
    {S::connected, E::reconcile_unacked, 0, 0, {S::connected, A::none},
     "nothing to reconcile"},

    // --- disconnected --------------------------------------------------------
    {S::disconnected, E::gc_tick, kReconcileCap, 0,
     {S::disconnected, A::sync_probe}, "sync the journal stats, then probe"},
    {S::disconnected, E::gc_tick, kReconcileCap, kReconcileCap,
     {S::disconnected, A::sync}, "attempts spent: stats only"},
    {S::disconnected, E::op_tick, kReconcileCap, 0,
     {S::disconnected, A::sync_probe},
     "op ticks probe too: a hot loop may never GC"},
    {S::disconnected, E::op_tick, kReconcileCap, kReconcileCap,
     {S::disconnected, A::sync}, "attempts spent: stats only"},
    {S::disconnected, E::peer_lost, 0, 0, {S::disconnected, A::none},
     "already away"},
    {S::disconnected, E::probe_delivered, 0, 0,
     {S::disconnected, A::reconcile}, "the link is back: replay the log"},
    {S::disconnected, E::reconcile_acked, 0, 0, {S::connected, A::resume},
     "applied and acked over a live link"},
    {S::disconnected, E::reconcile_unacked, 0, 0,
     {S::disconnected, A::retain},
     "not applied (retry the same log later) or ack lost: still partitioned"},

    // --- dead ----------------------------------------------------------------
    {S::dead, E::gc_tick, kReadmission | kReadmitCap, kReadmission,
     {S::dead, A::probe}, "readmission armed with budget left"},
    {S::dead, E::gc_tick, kReadmission | kReadmitCap,
     kReadmission | kReadmitCap, {S::dead, A::none}, "readmissions spent"},
    {S::dead, E::gc_tick, kReadmission, 0, {S::dead, A::none},
     "readmission off: permanent degradation"},
    {S::dead, E::op_tick, 0, 0, {S::dead, A::none},
     "parity: readmission probes on GC ticks only"},
    {S::dead, E::peer_lost, 0, 0, {S::dead, A::none}, "already reclaimed"},
    {S::dead, E::probe_delivered, 0, 0, {S::connected, A::readmit},
     "the surrogate answers: fresh epoch, re-offload"},
    {S::dead, E::reconcile_acked, 0, 0, {S::dead, A::none},
     "no replay target"},
    {S::dead, E::reconcile_unacked, 0, 0, {S::dead, A::none},
     "no replay target"},
};

std::string describe(S s, E e, unsigned bits) {
  return std::string(kStateNames[static_cast<int>(s)]) + " x " +
         kEventNames[static_cast<int>(e)] + " guards=" + std::to_string(bits);
}

std::string describe(const LinkStep& step) {
  return std::string(kStateNames[static_cast<int>(step.next)]) + "/" +
         kActionNames[static_cast<int>(step.action)];
}

bool matches(const Row& r, S s, E e, unsigned bits) {
  return r.state == s && r.event == e && (bits & r.care) == r.value;
}

TEST(LinkStateTableTest, EveryRowHoldsWhateverTheOtherGuards) {
  for (const Row& r : kRows) {
    for (unsigned bits = 0; bits < kAllGuards; ++bits) {
      if (!matches(r, r.state, r.event, bits)) continue;
      SCOPED_TRACE(describe(r.state, r.event, bits) + ": " + r.why);
      const LinkStep got = link_step(r.state, r.event, guards_of(bits));
      EXPECT_EQ(describe(got), describe(r.expect));
    }
  }
}

TEST(LinkStateTableTest, RowsCoverEveryCellExactlyOnce) {
  for (const S s : kStates) {
    for (const E e : kEvents) {
      for (unsigned bits = 0; bits < kAllGuards; ++bits) {
        std::size_t hits = 0;
        for (const Row& r : kRows) hits += matches(r, s, e, bits) ? 1 : 0;
        EXPECT_EQ(hits, 1u) << describe(s, e, bits);
      }
    }
  }
}

TEST(LinkStateTableTest, OnlyLossAndReconnectChangeState) {
  // Leaving connected takes a lost peer; returning takes an acked
  // reconcile (partition) or a delivered probe (death). Ticks never move
  // the state by themselves — their actions raise the events that do.
  for (const Row& r : kRows) {
    if (r.expect.next == r.state) continue;
    SCOPED_TRACE(r.why);
    const bool loss = r.state == S::connected && r.event == E::peer_lost;
    const bool back = (r.state == S::disconnected &&
                       r.event == E::reconcile_acked) ||
                      (r.state == S::dead && r.event == E::probe_delivered);
    EXPECT_TRUE(loss || back) << describe(r.state, r.event, r.value);
  }
}

TEST(LinkStateTableTest, IsUsableAtCompileTime) {
  constexpr LinkStep step =
      link_step(S::dead, E::probe_delivered, LinkGuards{});
  static_assert(step.next == S::connected && step.action == A::readmit);
  // The values the retired max_readmissions / max_reconciles / probe_bytes
  // knobs defaulted to; recovery timelines depend on them.
  static_assert(kMaxReadmissions == 4 && kMaxReconciles == 16);
  static_assert(kProbeBytes == 64);
}

}  // namespace
}  // namespace aide::platform
