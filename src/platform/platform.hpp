// The AIDE distributed platform (the paper's primary contribution).
//
// A Platform pairs a resource-constrained client VM with a surrogate VM over
// a simulated wireless link and wires up the three modules of Figure 4:
//
//   Monitor   — the ExecutionMonitor in both VMs' monitor slots, and the
//               ResourceMonitor fed the client's GC reports,
//   Partition — modified-MINCUT candidate evaluation against the configured
//               policy when a low-memory trigger fires (or on demand),
//   Remote    — rpc::Endpoint pair providing transparent remote invocations,
//               data access, reference mapping and distributed GC.
//
// Offloading is adaptive and transparent: the application executes through
// the client VM's ordinary context API; when the trigger policy fires (N
// successive low-memory GC reports) or an allocation would fail outright, the
// platform partitions the execution graph and migrates the selected
// components' objects to the surrogate. Execution then transparently follows
// the objects.
//
// A lone Platform owns its clock and runs its own startup gates. A server
// session (platform::Session) is the same Platform on the server's clock,
// with a session-derived node pair and handle namespace and the server's
// shared gates.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "analysis/effects.hpp"
#include "common/simclock.hpp"
#include "monitor/monitor.hpp"
#include "monitor/resource_monitor.hpp"
#include "netsim/link.hpp"
#include "partition/partitioner.hpp"
#include "platform/link_state.hpp"
#include "platform/surrogate_registry.hpp"
#include "rpc/endpoint.hpp"
#include "vm/vm.hpp"

namespace aide::platform {

struct Enhancements {
  // Execute stateless native methods where invoked (paper 5.2, "Native").
  bool stateless_natives_local = false;
  // Place large primitive int arrays at object granularity ("Array").
  bool arrays_as_objects = false;
  std::int64_t min_array_bytes = 4096;
};

// Idle-period failure detection: while connected, every client tick (GC
// report, invocation exit, data access) checks whether the client endpoint
// has been quiet for `idle_after`; if so a ping() probes the surrogate, so a
// dead peer is detected before the next application RPC stalls on it. 0
// disables heartbeats — the default, which keeps armed-but-inert fault plans
// bit-identical to fault-free runs.
struct HeartbeatPolicy {
  SimDuration idle_after = 0;
};

// Surrogate re-admission: after a surrogate death the platform keeps probing
// the link on client GC ticks; when a probe gets through it reconnects the
// endpoint pair under a fresh migration epoch, re-runs the partitioning
// policy and re-offloads (at most kMaxReadmissions times). Off by default:
// permanent degradation remains the baseline.
struct ReadmissionPolicy {
  bool enabled = false;
};

// Disconnected operation: when the client endpoint's partition detector
// distinguishes a sustained partition from transient loss, the platform
// enters the disconnected link state instead of tearing the offload down —
// it hoards replicas of the surrogate-resident working set into the client
// heap, executes everything locally while journaling intended remote
// mutations into a coalescing redo log, probes the link, and reconciles the
// log against the revived surrogate exactly-once (at most kMaxReconciles
// attempts per episode) before resuming partitioned execution. Off by
// default: teardown remains the baseline.
struct DisconnectPolicy {
  // Arms both endpoints' partition detectors, whose thresholds are
  // rpc::kSuspectTimeouts and rpc::kSuspectSilence.
  bool enabled = false;
  // Proactive hoard on a degrading link: while connected and offloaded, if
  // the Jacobson-estimated RTT exceeds this threshold the platform recalls
  // the prefetch-eligible working set (StaticHints: encapsulated-writes
  // classes) over the still-live link, so an eventual partition strands less
  // state. 0 disables the proactive path.
  SimDuration degrade_rtt = 0;
};

struct PlatformConfig {
  std::int64_t client_heap = std::int64_t{6} << 20;   // paper: 6 MB Java heap
  std::int64_t surrogate_heap = std::int64_t{64} << 20;
  // Client GC cadence: frequent cycles near exhaustion give the resource
  // monitor its "frequent memory usage updates" (paper 5.1).
  std::int64_t client_gc_alloc_count_threshold = 1024;
  std::int64_t client_gc_alloc_bytes_divisor = 32;
  double surrogate_speedup = 3.5;                     // paper-measured ratio
  netsim::LinkParams link = netsim::LinkParams::wavelan();

  // Deterministic link-fault schedule; an inert plan (the default) keeps the
  // platform bit-identical to the fault-free model.
  netsim::FaultPlan fault_plan;
  // Batched, pipelined transport (on by default): write-behind coalescing
  // into multi-op frames plus read-ahead object snapshots seeded with the
  // MINCUT partition groups of each offload. Application-transparent — only
  // frame counts and virtual-time latency change.
  bool batching = true;
  // Idle-period heartbeat probing (off by default).
  HeartbeatPolicy heartbeat;
  // Probe-and-reconnect after a surrogate failure (off by default).
  ReadmissionPolicy readmission;
  // Disconnected operation: hoard / journal / reconcile (off by default).
  DisconnectPolicy disconnect;
  // One timer paces the link: reconnect probes (kProbeBytes each) while the
  // surrogate is away (dead or disconnected) and proactive recalls while it
  // is present.
  SimDuration probe_interval = sim_ms(250);

  monitor::TriggerPolicy trigger;                     // paper: <5% free, x3
  // Minimum client-heap fraction an acceptable partitioning must free
  // (paper: at least 20%).
  double min_free_fraction = 0.20;
  partition::Objective objective = partition::Objective::free_memory;

  Enhancements enhancements;

  // Run the static partition-safety analyzer (aidelint) over the registry at
  // startup: construction throws analysis::AnalysisError on ERROR-severity
  // findings and logs WARN findings.
  bool static_analysis = true;
  // Run the interprocedural effect verifier (aideverify) over the registry
  // at startup: infers per-method summaries from the declared effect IR and
  // audits every hand-declared annotation against them; declared-metadata
  // drift refuses startup exactly like the static_analysis gate. The
  // transport does not consult the result: write-behind needs no proof.
  bool effect_verify = true;
  // Feed the analyzer's static hints into the partitioner so the execution
  // graph is pre-contracted before MINCUT. Off by default: the purely
  // dynamic pipeline stays bit-identical to the paper model. Whenever
  // aidelint ran, every runtime migration decision is also cross-checked
  // against its verdict (defense in depth): offloading a pin root — or, with
  // hints enabled, any never-migrate class — raises std::logic_error.
  bool use_static_hints = false;

  // React to triggers automatically; otherwise only offload_now() offloads.
  bool auto_offload = true;
  // The paper's prototype "performs a single offloading from a client device
  // to a single surrogate server".
  std::size_t max_offloads = 1;
};

struct OffloadReport {
  partition::PartitionDecision decision;
  std::size_t objects_migrated = 0;
  std::uint64_t bytes_migrated = 0;
  SimTime at = 0;
  SimTime completed_at = 0;
  std::int64_t client_heap_used_before = 0;
  std::int64_t client_heap_used_after = 0;
};

// One surrogate failure handled by the graceful-degradation path.
struct FailureReport {
  SimTime at = 0;
  std::size_t objects_reclaimed = 0;
  std::uint64_t bytes_reclaimed = 0;
};

// One successful re-admission of a recovered surrogate.
struct ReadmissionReport {
  SimTime at = 0;
  std::size_t ordinal = 0;        // 1 for the first re-admission, ...
  std::size_t probes_sent = 0;    // probes since the failure it recovers
  bool reoffloaded = false;       // the immediate re-partitioning migrated
};

// One disconnected-operation episode: entered on partition detection, left
// (resumed == true) when a reconcile both applied and acked over a live link.
struct DisconnectReport {
  SimTime at = 0;                    // partition detected, mode entered
  std::size_t objects_hoarded = 0;   // replicas pulled into the client heap
  std::uint64_t bytes_hoarded = 0;
  std::size_t reconciles = 0;        // redo logs applied on the peer
  std::size_t entries_replayed = 0;  // coalesced entries those logs carried
  bool resumed = false;              // back to connected partitioned execution
  SimTime resumed_at = 0;
};

// One proactive recall: prefetch-eligible state pulled back over a live but
// degrading link (DisconnectPolicy::degrade_rtt).
struct RecallReport {
  SimTime at = 0;
  std::size_t objects = 0;
  std::uint64_t bytes = 0;
};

class Platform : private vm::VmHooks {
 public:
  // A lone platform: its own clock, nodes 1 and 2, plain handles, and the
  // startup gates run here.
  Platform(std::shared_ptr<const vm::ClassRegistry> registry,
           PlatformConfig config = {});
  ~Platform() override;

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // Convenience: builds a config from a registry-selected surrogate.
  static PlatformConfig config_for(const SurrogateInfo& surrogate,
                                   PlatformConfig base = {});

  [[nodiscard]] vm::Vm& client() noexcept { return *client_; }
  [[nodiscard]] vm::Vm& surrogate() noexcept { return *surrogate_; }
  [[nodiscard]] const vm::Vm& surrogate() const noexcept {
    return *surrogate_;
  }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] netsim::Link& link() noexcept { return link_; }
  [[nodiscard]] monitor::ExecutionMonitor& exec_monitor() noexcept {
    return exec_monitor_;
  }
  [[nodiscard]] monitor::ResourceMonitor& resource_monitor() noexcept {
    return resource_monitor_;
  }
  [[nodiscard]] rpc::Endpoint& client_endpoint() noexcept {
    return *client_ep_;
  }
  [[nodiscard]] rpc::Endpoint& surrogate_endpoint() noexcept {
    return *surrogate_ep_;
  }
  [[nodiscard]] const PlatformConfig& config() const noexcept {
    return config_;
  }
  // The startup static-analysis report (empty when static_analysis is off).
  [[nodiscard]] const std::optional<analysis::AnalysisReport>&
  analysis_report() const noexcept {
    return gates_->analysis;
  }
  // The startup effect-verify report (empty when effect_verify is off).
  [[nodiscard]] const std::optional<analysis::VerifyReport>& verify_report()
      const noexcept {
    return gates_->verify;
  }

  [[nodiscard]] const std::vector<OffloadReport>& offloads() const noexcept {
    return offloads_;
  }
  [[nodiscard]] bool offloaded() const noexcept { return !offloads_.empty(); }

  [[nodiscard]] const std::vector<FailureReport>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] LinkState link_state() const noexcept { return link_state_; }
  [[nodiscard]] bool surrogate_dead() const noexcept {
    return link_state_ == LinkState::dead;
  }
  [[nodiscard]] bool disconnected() const noexcept {
    return link_state_ == LinkState::disconnected;
  }

  [[nodiscard]] const std::vector<ReadmissionReport>& readmissions()
      const noexcept {
    return readmissions_;
  }

  [[nodiscard]] const std::vector<DisconnectReport>& disconnects()
      const noexcept {
    return disconnects_;
  }
  [[nodiscard]] const std::vector<RecallReport>& recalls() const noexcept {
    return recalls_;
  }
  // The live redo log (test/bench visibility into coalescing behavior).
  [[nodiscard]] const vm::DisconnectLog& disconnect_log() const noexcept {
    return disconnect_log_;
  }

  // Registers the registry entry this platform's surrogate was selected
  // from, so a failure can be reported back for future selections.
  void attach_surrogate_registry(SurrogateRegistry* registry,
                                 NodeId surrogate_id) noexcept {
    surrogate_registry_ = registry;
    registered_surrogate_ = surrogate_id;
  }

  // The peer-lost event: a connected platform pulls the surrogate's state
  // home — replicas when the policy is armed and the detector says the link
  // (not the peer) is gone, otherwise the originals, marking the surrogate
  // dead in the attached registry — and charges the recovery channel.
  // Idempotent; returns true once the client owns all surviving state.
  bool handle_peer_failure();

  // Evaluates the partitioning policy now; migrates and returns a report if a
  // beneficial offloading exists. `min_free_override` tightens/loosens the
  // memory constraint for forced (allocation-failure) offloads.
  std::optional<OffloadReport> offload_now(
      std::optional<std::int64_t> min_free_override = std::nullopt);

  // Total simulated time elapsed.
  [[nodiscard]] SimDuration elapsed() const noexcept { return clock_.now(); }

 protected:
  // The session form every constructor goes through. `clock` is not owned
  // and must outlive the platform. A session id fixes the node pair
  // (16 + 2·id, 17 + 2·id), the VM names (client#id, surrogate#id) and the
  // RefMap handle namespace (id % 0xFFFE) + 1; none gives the lone
  // platform's. A non-null `device` is a client VM on `clock` handed over by
  // release_client(): it keeps its node, heap, roots and object ids.
  Platform(std::shared_ptr<const vm::ClassRegistry> registry,
           PlatformConfig config, SimClock& clock,
           std::optional<SessionId> session,
           std::shared_ptr<const analysis::StartupGates> gates,
           std::unique_ptr<vm::Vm> device);

  // Hands the client VM to a successor platform: unhooks it and clears every
  // callback it holds into this platform, which is left without a client and
  // may only be destroyed (after its endpoint's disconnect()).
  [[nodiscard]] std::unique_ptr<vm::Vm> release_client();

  // The one migration path (policy offloads and scripted ones): ships `ids`
  // to the surrogate while connected and returns the bytes sent. A lost peer
  // runs the peer-lost transition and returns nullopt; migrate_objects has
  // already put the batch wherever it authoritatively lives. A surrogate
  // with no room for the batch refuses it whole: nullopt, still connected,
  // the batch back on the client. A Session prices the batch against its
  // budget first.
  virtual std::optional<std::uint64_t> migrate(std::span<const ObjectId> ids);

 private:
  // VmHooks: client GC reports, invocation exits and data accesses are the
  // link state machine's ticks, all dispatched through tick(). GC reports
  // reach the resource monitor first. The platform subscribes to op ticks
  // only when a heartbeat or the disconnect policy is armed: otherwise no
  // state's op-tick action can do anything.
  void on_gc(NodeId vm, const vm::GcReport& report) override;
  void on_invoke(const vm::InvokeEvent& ev) override;
  void on_access(const vm::AccessEvent& ev) override;
  void tick(NodeId vm, LinkEvent event);
  // Samples the guards, commits link_step()'s next state, runs its action.
  void transition(LinkEvent event);

  // The table's actions. pull_back brings the surrogate's state home on
  // loss: replicas (partition) or the originals (death).
  void heartbeat();
  void maintain();
  void recall();
  void probe();
  void pull_back(bool partition);
  void reconcile();
  void resume();
  void readmit();

  // Rate limit shared by probes and recalls; stamps the timer when due.
  bool probe_due();
  // Pushes redo-log counter deltas into the client endpoint's stats.
  void sync_partition_stats();
  // The policy's own constraint first, then any partitioning that frees
  // something (allocation rescue and readmission).
  std::optional<OffloadReport> offload_with_fallback();

  bool low_memory_rescue(vm::Vm& vm);
  [[nodiscard]] partition::PartitionRequest make_request(
      std::optional<std::int64_t> min_free_override) const;
  void collect_reoffload_gravity();

  PlatformConfig config_;
  SimClock own_clock_;  // a lone platform's; sessions run on the server's
  SimClock& clock_;
  netsim::Link link_;
  std::shared_ptr<const vm::ClassRegistry> registry_;
  // The startup-gate reports; a server's sessions share its one copy.
  std::shared_ptr<const analysis::StartupGates> gates_;

  std::unique_ptr<vm::Vm> client_;
  std::unique_ptr<vm::Vm> surrogate_;
  std::unique_ptr<rpc::Endpoint> client_ep_;
  std::unique_ptr<rpc::Endpoint> surrogate_ep_;

  monitor::ExecutionMonitor exec_monitor_;
  monitor::ResourceMonitor resource_monitor_;

  std::vector<OffloadReport> offloads_;
  std::vector<FailureReport> failures_;
  std::vector<ReadmissionReport> readmissions_;
  std::vector<DisconnectReport> disconnects_;
  std::vector<RecallReport> recalls_;
  // Set for the extent of an offload or a migration (FlagScope restores it
  // on every exit, exceptions included): GC ticks and nested offloads keep
  // out meanwhile.
  bool offloading_in_progress_ = false;
  bool in_op_tick_ = false;  // op ticks never re-enter; GC ticks may

  LinkState link_state_ = LinkState::connected;
  // The probe timer (see PlatformConfig::probe_interval) and the probe
  // counts since the last loss; delivered probes bound reconcile attempts.
  SimTime last_probe_at_ = 0;
  std::size_t probes_sent_ = 0;
  std::size_t probes_delivered_ = 0;

  // Disconnected-era state: the redo log, the hoarded replicas to drop at
  // resume, and the log counters already pushed into EndpointStats.
  vm::DisconnectLog disconnect_log_;
  std::vector<ObjectId> hoarded_ids_;
  std::uint64_t synced_journaled_ = 0;
  std::uint64_t synced_coalesced_ = 0;
  // Components of the working tree rebuilt while disconnected, harvested
  // from the redo log's live values just before they ship; seeds the
  // post-reconcile re-offload with allocation gravity until the next
  // disconnection.
  std::unordered_set<graph::ComponentKey> reoffload_gravity_;
  // Admission threshold of the most recent successful offload, replayed by
  // the post-reconcile re-offload so resume restores the same placement
  // policy that was in effect when the partition hit.
  std::optional<std::int64_t> last_offload_min_free_;
  SurrogateRegistry* surrogate_registry_ = nullptr;
  NodeId registered_surrogate_ = NodeId::invalid();
};

}  // namespace aide::platform
