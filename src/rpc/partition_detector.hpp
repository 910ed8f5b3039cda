// Partition detection: distinguishing sustained disconnection from loss.
//
// The endpoint's retry loop already absorbs transient loss — drops, reorder
// and short outages ride the Jacobson adaptive RTO and succeed on a later
// attempt. A *sustained* partition looks different on two axes at once:
//
//   1. consecutive timeouts — every attempt of every RPC times out, so the
//      consecutive-timeout run grows without ever being reset by a delivery;
//   2. heartbeat silence — nothing at all has been heard from the peer for
//      at least kSuspectSilence.
//
// Either signal alone misfires: a run of unlucky drops can produce a few
// consecutive timeouts in a healthy link (axis 1), and an idle client hears
// nothing for long stretches without the link being down (axis 2). The
// detector therefore declares suspicion only when BOTH hold. It is fed from
// the endpoint's transact loop (note_delivery on every frame that makes it
// back, note_timeout on every expired attempt) and is purely passive:
// counters and timestamps only — no RNG draws, no clock advances — so an
// armed detector never perturbs byte-reproducible schedules.
#pragma once

#include <cstdint>

#include "common/simclock.hpp"

namespace aide::rpc {

// The retry envelope and the partition detector's thresholds: one decision,
// since the thresholds are derived from the retry budget. All delays are
// virtual time charged to the calling VM's clock.
//
// An RPC makes at most kMaxAttempts attempts. An attempt that gets no reply
// charges the adaptive timeout (endpoint.cpp): kTimeout until the first RTT
// sample, then the Jacobson RTO clamped to [kMinTimeout, kTimeout]. Timeouts
// are only charged on genuine delivery failure in this simulation, so
// adapting can only shorten the stall a failure costs, never cause a
// spurious abort.
inline constexpr int kMaxAttempts = 4;
inline constexpr SimDuration kTimeout = sim_ms(50);
inline constexpr SimDuration kMinTimeout = sim_ms(2);
// Consecutive attempt timeouts (with no intervening delivery) before the
// link is suspect. An RPC makes kMaxAttempts attempts, so during a true
// outage the threshold trips within the first failed call.
inline constexpr std::uint32_t kSuspectTimeouts = 3;
// Minimum silence (virtual time since the last frame was heard) before
// timeouts are believed. Covers the idle-link case and debounces bursts of
// drop-induced timeouts on a live link.
inline constexpr SimDuration kSuspectSilence = sim_ms(60);

class PartitionDetector {
 public:
  // Unarmed by default, and an unarmed detector never suspects: the
  // platform arms it only when its disconnected-operation mode is enabled.
  void arm() noexcept { armed_ = true; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  // A frame arrived from the peer (reply delivered): the link is alive.
  void note_delivery(SimTime now) noexcept {
    consecutive_timeouts_ = 0;
    last_delivery_ = now;
  }

  // One send attempt expired without a reply.
  void note_timeout(SimTime /*now*/) noexcept { consecutive_timeouts_ += 1; }

  // Current length of the consecutive-timeout run.
  [[nodiscard]] std::uint32_t consecutive_timeouts() const noexcept {
    return consecutive_timeouts_;
  }

  // Virtual time since the last delivery. Before anything was ever heard the
  // connection epoch start (reset()) anchors the silence window.
  [[nodiscard]] SimDuration silence(SimTime now) const noexcept {
    return now - last_delivery_;
  }

  // True when the detector is armed and both thresholds hold.
  [[nodiscard]] bool suspected(SimTime now) const noexcept {
    return armed_ && consecutive_timeouts_ >= kSuspectTimeouts &&
           silence(now) >= kSuspectSilence;
  }

  // Fresh connection epoch (connect/readmit): forget the old link's history
  // and anchor the silence window at `now`.
  void reset(SimTime now) noexcept {
    consecutive_timeouts_ = 0;
    last_delivery_ = now;
  }

 private:
  bool armed_ = false;
  std::uint32_t consecutive_timeouts_ = 0;
  SimTime last_delivery_ = 0;
};

}  // namespace aide::rpc
