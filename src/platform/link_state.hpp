// The surrogate link's state machine. Every recovery behaviour of Platform
// (heartbeat, proactive recall, death and readmission, partition and
// reconcile) is one cell of link_step()'s (state, event) table. The function
// is pure: the platform samples the guards, commits the next state, then
// executes the action. DESIGN.md §5 gives the table with its parity rows.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simclock.hpp"

namespace aide::platform {

enum class LinkState : std::uint8_t {
  connected,     // offloaded state lives on the reachable surrogate
  disconnected,  // partitioned: replicas hoarded, writes journaled, the
                 // surrogate's originals kept as the replay target
  dead,          // the surrogate's state was moved home; nothing to replay
};

enum class LinkEvent : std::uint8_t {
  gc_tick,            // client GC report
  op_tick,            // client invocation exit or data access
  peer_lost,          // an RPC was abandoned at the top level
  probe_delivered,    // a reconnect probe got through
  reconcile_acked,    // the redo log applied and its COMMIT was acked
  reconcile_unacked,  // not applied, or applied with the ack lost
};

enum class LinkAction : std::uint8_t {
  none,
  heartbeat,   // ping the surrogate if the link has been idle too long
  maintain,    // heartbeat, then proactive recall, then the offload trigger
  probe,       // rate-limited reconnect probe
  sync,        // push redo-log counters into the endpoint stats
  sync_probe,  // sync, then probe
  hoard,       // copy replicas home; keep the RefMaps and the replay target
  reclaim,     // move the originals home and sever the endpoint pair
  reconcile,   // replay the redo log on the reconnected surrogate
  retain,      // detach again and keep the replicas
  resume,      // drop the replicas; re-offload under the last threshold
  readmit,     // reconnect under a fresh epoch; re-offload with fallback
};

// Facts the table branches on, sampled by the platform at the event.
struct LinkGuards {
  bool disconnect_armed = false;     // DisconnectPolicy::enabled
  bool partition_suspected = false;  // either endpoint's detector suspects
  bool readmission_enabled = false;  // ReadmissionPolicy::enabled
  bool readmissions_capped = false;  // kMaxReadmissions reached this run
  bool reconciles_capped = false;    // kMaxReconciles reached this episode
};

inline constexpr std::size_t kMaxReadmissions = 4;
inline constexpr std::size_t kMaxReconciles = 16;
// Size of one reconnect probe, charged to the link when it delivers.
inline constexpr std::uint64_t kProbeBytes = 64;
// Recovery-channel cost model for pulling state home on surrogate loss
// (reclaim or hoard): a flat re-handshake latency plus the pulled bytes over
// kRecoveryBandwidthBps.
inline constexpr SimDuration kRecoveryLatency = sim_ms(200);
inline constexpr double kRecoveryBandwidthBps = 11e6;

struct LinkStep {
  LinkState next;
  LinkAction action;
};

[[nodiscard]] constexpr LinkStep link_step(LinkState state, LinkEvent event,
                                           const LinkGuards& g) noexcept {
  using A = LinkAction;
  using E = LinkEvent;
  using S = LinkState;
  if (state == S::connected) {
    if (event == E::op_tick) return {state, A::heartbeat};
    if (event == E::gc_tick) return {state, A::maintain};
    if (event != E::peer_lost) return {state, A::none};  // never probes
    // A sustained partition is not a death: keep the replay target.
    if (g.disconnect_armed && g.partition_suspected) {
      return {S::disconnected, A::hoard};
    }
    return {S::dead, A::reclaim};
  }
  if (state == S::disconnected) {
    switch (event) {
      // Op ticks probe too: a hot loop over hoarded arrays never GCs.
      case E::gc_tick:
      case E::op_tick:
        return {state, g.reconciles_capped ? A::sync : A::sync_probe};
      case E::probe_delivered: return {state, A::reconcile};
      case E::reconcile_acked: return {S::connected, A::resume};
      case E::reconcile_unacked: return {state, A::retain};
      default: return {state, A::none};  // already away
    }
  }
  // Dead. Parity: readmission probes on GC ticks only, never on op ticks.
  if (event == E::gc_tick) {
    return {state, g.readmission_enabled && !g.readmissions_capped ? A::probe
                                                                   : A::none};
  }
  if (event == E::probe_delivered) return {S::connected, A::readmit};
  return {state, A::none};
}

}  // namespace aide::platform
