#include "platform/platform.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"

namespace aide::platform {

namespace {
constexpr NodeId kClientNode{1};
constexpr NodeId kSurrogateNode{2};
}  // namespace

Platform::Platform(std::shared_ptr<const vm::ClassRegistry> registry,
                   PlatformConfig config)
    : config_(config),
      link_(config.link),
      registry_(std::move(registry)),
      exec_monitor_(registry_,
                    monitor::MonitorConfig{monitor::GranularityPolicy{
                        config.enhancements.arrays_as_objects,
                        config.enhancements.min_array_bytes,
                        {registry_->int_array_class()}}}),
      resource_monitor_(kClientNode, config.trigger) {
  if (config_.static_analysis) {
    // Static partition-safety gate: refuse to run a program whose registry
    // has ERROR-severity findings; surface the warnings either way.
    analysis_ = analysis::analyze(*registry_);
    for (const auto& d : analysis_->diagnostics) {
      if (d.severity == analysis::Severity::warning) {
        AIDE_LOG_WARN("aidelint", d.format());
      }
    }
    if (!analysis_->ok()) throw analysis::AnalysisError(*analysis_);
  }
  if (config_.effect_verify) {
    // Effect-inference gate: infer whole-program summaries from the method
    // IR and audit every hand-declared annotation against them. Drift is a
    // programming error — refuse startup exactly like the gate above.
    verify_ = analysis::verify(*registry_);
    for (const auto& d : verify_->diagnostics) {
      if (d.severity == analysis::Severity::warning) {
        AIDE_LOG_WARN("aideverify", d.format());
      }
    }
    // Only verify-layer findings gate here; base lint errors belong to the
    // static_analysis gate above (and stay waivable independently of it).
    if (verify_->count(analysis::Severity::error) > 0) {
      auto merged = verify_->base;
      merged.diagnostics = verify_->diagnostics;
      throw analysis::AnalysisError(merged);
    }
  }

  vm::VmConfig client_cfg;
  client_cfg.node = kClientNode;
  client_cfg.name = "client";
  client_cfg.is_client = true;
  client_cfg.cpu_speed = 1.0;
  client_cfg.heap_capacity = config_.client_heap;
  client_cfg.gc_alloc_count_threshold =
      config_.client_gc_alloc_count_threshold;
  client_cfg.gc_alloc_bytes_divisor = config_.client_gc_alloc_bytes_divisor;
  client_cfg.stateless_natives_local =
      config_.enhancements.stateless_natives_local;
  client_ = std::make_unique<vm::Vm>(client_cfg, registry_, clock_);

  vm::VmConfig surrogate_cfg;
  surrogate_cfg.node = kSurrogateNode;
  surrogate_cfg.name = "surrogate";
  surrogate_cfg.is_client = false;
  surrogate_cfg.cpu_speed = config_.surrogate_speedup;
  surrogate_cfg.heap_capacity = config_.surrogate_heap;
  surrogate_cfg.stateless_natives_local =
      config_.enhancements.stateless_natives_local;
  surrogate_ = std::make_unique<vm::Vm>(surrogate_cfg, registry_, clock_);

  client_ep_ = std::make_unique<rpc::Endpoint>(*client_, link_);
  surrogate_ep_ = std::make_unique<rpc::Endpoint>(*surrogate_, link_);
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);

  link_.set_fault_plan(config_.fault_plan);
  client_ep_->set_retry_policy(config_.retry);
  surrogate_ep_->set_retry_policy(config_.retry);
  client_ep_->set_batch_policy(config_.batching);
  surrogate_ep_->set_batch_policy(config_.batching);
  if (verify_.has_value() && verify_->methods_total > 0 &&
      verify_->methods_with_ir == verify_->methods_total) {
    // Full IR coverage: the inferred conflict matrix bounds every deferred
    // store, so the transport may consult it. Anything less proves nothing
    // (⊤ summaries poison the matrix) and would only force early flushes.
    batch_safety_.emplace(*verify_);
    client_ep_->set_batch_safety(&*batch_safety_);
    surrogate_ep_->set_batch_safety(&*batch_safety_);
  }
  if (config_.fault_plan.enabled()) {
    // Exactly-once recovery needs the undo journal; fault-free runs keep it
    // off so they stay bit-identical to the unjournaled platform.
    client_->set_journal_enabled(true);
    surrogate_->set_journal_enabled(true);
  }
  if (config_.disconnect.enabled) {
    // Arm the partition detector. Passive — counters and timestamps only —
    // so arming it never perturbs a schedule; it only changes what
    // handle_peer_failure decides when an RPC is finally abandoned.
    rpc::PartitionPolicy pp;
    pp.enabled = true;
    pp.consecutive_timeouts = config_.disconnect.consecutive_timeouts;
    pp.silence_after = config_.disconnect.silence_after;
    client_ep_->set_partition_policy(pp);
    // The surrogate's endpoint carries call-backs and release traffic; a
    // partition first surfaces on whichever side happens to be mid-RPC, so
    // both detectors must be armed and handle_peer_failure consults both.
    surrogate_ep_->set_partition_policy(pp);
  }
  client_ep_->set_peer_failure_handler([this] { return handle_peer_failure(); });

  client_->add_hooks(&exec_monitor_);
  client_->add_hooks(&resource_monitor_);
  client_->add_hooks(this);
  surrogate_->add_hooks(&exec_monitor_);

  client_->set_low_memory_handler(
      [this](vm::Vm& vm) { return low_memory_rescue(vm); });
}

Platform::~Platform() {
  client_->remove_hooks(this);
  client_->remove_hooks(&resource_monitor_);
  client_->remove_hooks(&exec_monitor_);
  surrogate_->remove_hooks(&exec_monitor_);
}

PlatformConfig Platform::config_for(const SurrogateInfo& surrogate,
                                    PlatformConfig base) {
  base.surrogate_heap = surrogate.heap_capacity;
  base.surrogate_speedup = surrogate.cpu_speed;
  base.link = surrogate.link;
  return base;
}

void Platform::on_gc(NodeId vm, const vm::GcReport&) {
  if (vm != kClientNode || offloading_in_progress_) return;
  if (mode_ == Mode::disconnected) {
    sync_partition_stats();
    maybe_reconcile();
    return;
  }
  if (surrogate_dead_) {
    maybe_readmit();
    return;
  }
  maybe_heartbeat();  // may detect a dead/partitioned surrogate
  if (mode_ == Mode::disconnected || surrogate_dead_) return;
  maybe_proactive_recall();
  if (mode_ == Mode::disconnected || surrogate_dead_) return;
  if (!config_.auto_offload) return;
  if (offloads_.size() >= offload_budget()) return;
  if (resource_monitor_.triggered()) {
    resource_monitor_.consume_trigger();
    offload_now();
  }
}

void Platform::on_invoke(const vm::InvokeEvent& ev) {
  link_maintenance(ev.vm);
}

void Platform::on_access(const vm::AccessEvent& ev) {
  // A compute-heavy stretch can burn hundreds of simulated milliseconds
  // inside one method without a single invocation exit or GC; data accesses
  // are the only events dense enough to notice the link there.
  link_maintenance(ev.vm);
}

void Platform::link_maintenance(NodeId vm) {
  if (vm != kClientNode || offloading_in_progress_ || disconnect_dispatch_) {
    return;
  }
  disconnect_dispatch_ = true;
  if (mode_ == Mode::disconnected) {
    sync_partition_stats();
    maybe_reconcile();
  } else if (!surrogate_dead_) {
    // Quiet-window detection: a long local stretch with an idle link never
    // GCs either, so the heartbeat needs this dispatch point too. A no-op
    // unless the heartbeat policy is armed and the link has gone silent.
    maybe_heartbeat();
  }
  disconnect_dispatch_ = false;
}

void Platform::maybe_heartbeat() {
  if (config_.heartbeat.idle_after <= 0 || !offloaded() || surrogate_dead_) {
    return;
  }
  if (clock_.now() - client_ep_->last_contact() < config_.heartbeat.idle_after) {
    return;
  }
  if (!client_ep_->ping()) handle_peer_failure();
}

void Platform::maybe_readmit() {
  if (!config_.readmission.enabled ||
      readmissions_.size() >= config_.readmission.max_readmissions) {
    return;
  }
  if (last_probe_at_ != 0 &&
      clock_.now() - last_probe_at_ < config_.readmission.probe_interval) {
    return;
  }
  last_probe_at_ = clock_.now();
  probes_since_failure_ += 1;
  const auto probe = link_.try_one_way(config_.readmission.probe_bytes,
                                       clock_.now(), netsim::Leg::request);
  if (!probe.delivered) return;
  clock_.advance(probe.cost);
  readmit();
}

void Platform::readmit() {
  // The recovered surrogate starts from an empty heap (its state was pulled
  // back at failure time); reconnect the pair under a fresh migration epoch
  // so any frame from before the failure is fenced, re-arm the triggers, and
  // re-run the partitioning policy immediately — the memory pressure that
  // forced the original offload did not go away with the failure.
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);
  client_ep_->advance_epoch();
  surrogate_dead_ = false;

  ReadmissionReport report;
  report.at = clock_.now();
  report.ordinal = readmissions_.size() + 1;
  report.probes_sent = probes_since_failure_;
  probes_since_failure_ = 0;
  readmissions_.push_back(report);

  resource_monitor_.note_peer_recovered();
  if (surrogate_registry_ != nullptr && registered_surrogate_.valid()) {
    surrogate_registry_->mark_alive(registered_surrogate_);
  }

  // Like low_memory_rescue: prefer the policy's own constraint, but restore
  // the pre-failure placement even when only a smaller win is available —
  // the device already proved it cannot run the workload comfortably alone.
  auto offload = offload_now();
  if (!offload.has_value()) {
    offload = offload_now(std::int64_t{1});
  }
  readmissions_.back().reoffloaded = offload.has_value();
  AIDE_LOG_INFO("platform", "surrogate re-admitted at ", report.at,
                "ns (probe #", report.probes_sent, "), re-offload ",
                offload.has_value() ? "succeeded" : "deferred");
}

bool Platform::low_memory_rescue(vm::Vm&) {
  if (offloading_in_progress_ || surrogate_dead_ ||
      mode_ == Mode::disconnected) {
    return false;
  }
  // Forced offload: free at least the configured fraction, but accept any
  // partitioning that frees something if the policy's constraint cannot be
  // met — failing the allocation is strictly worse.
  auto report = offload_now();
  if (!report.has_value()) {
    report = offload_now(std::int64_t{1});
  }
  return report.has_value();
}

partition::PartitionRequest Platform::make_request(
    std::optional<std::int64_t> min_free_override) const {
  partition::PartitionRequest req;
  req.objective = config_.objective;
  req.heap_capacity = config_.client_heap;
  req.min_free_bytes =
      min_free_override.value_or(static_cast<std::int64_t>(
          config_.min_free_fraction *
          static_cast<double>(config_.client_heap)));
  req.client_speed = 1.0;
  req.surrogate_speedup = config_.surrogate_speedup;
  req.min_improvement = config_.min_improvement;
  req.link = config_.link;
  const SimTime since = offloads_.empty() ? 0 : offloads_.back().at;
  req.history_duration = std::max<SimDuration>(clock_.now() - since, 1);
  req.weight = config_.edge_weight;
  if (!reoffload_gravity_.empty()) {
    req.reoffload_gravity = &reoffload_gravity_;
    req.gravity_credit_per_byte = config_.disconnect.reoffload_gravity_credit *
                                  config_.edge_weight.bytes_factor;
  }
  if (config_.use_static_hints) {
    // Prefer the verify-layer hints: a superset of the metadata-only ones
    // (same contraction fields, plus replay/prefetch facts the partitioner
    // ignores), so this changes nothing unless effect_verify found more.
    if (verify_.has_value()) {
      req.hints = &verify_->hints;
    } else if (analysis_.has_value()) {
      req.hints = &analysis_->hints;
    }
  }
  return req;
}

bool Platform::handle_peer_failure() {
  if (mode_ == Mode::disconnected) return true;
  if (surrogate_dead_) return true;
  // A sustained partition is not a dead surrogate: when the detector says
  // the link (not the peer) is gone, keep the surrogate's state where it is
  // and switch to disconnected execution against hoarded replicas instead of
  // tearing the offload down.
  if (config_.disconnect.enabled && (client_ep_->partition_suspected() ||
                                     surrogate_ep_->partition_suspected())) {
    return enter_disconnected_mode();
  }
  surrogate_dead_ = true;
  // Re-admission probing starts one probe_interval from now.
  last_probe_at_ = clock_.now();
  probes_since_failure_ = 0;

  FailureReport report;
  report.at = clock_.now();

  // Enumerate the surviving surrogate state before tearing anything down.
  std::vector<ObjectId> ids;
  surrogate_->heap().for_each(
      [&](const vm::Object& o) { ids.push_back(o.id); });
  std::sort(ids.begin(), ids.end());

  // Sever the pair first: release handlers become no-ops and no regular RPC
  // can charge the dead link while we reintegrate.
  client_ep_->disconnect();

  // Reintegration: adopt every surviving object into the client heap. Each
  // adoptee is pinned until the whole batch lands — a client GC forced by
  // ensure_capacity mid-loop cannot yet see the surrogate-side references
  // among them.
  std::uint64_t bytes = 0;
  for (const ObjectId id : ids) {
    auto obj = surrogate_->migrate_out(id);
    bytes += static_cast<std::uint64_t>(obj->size_bytes());
    client_->migrate_in(std::move(obj));
    client_->add_root(vm::ObjectRef{id});
  }
  for (const ObjectId id : ids) {
    client_->remove_root(vm::ObjectRef{id});
  }
  // Any write-behind ops still queued against the dead surrogate now target
  // reintegrated local objects; land them before the application resumes.
  client_ep_->flush_pending();
  report.objects_reclaimed = ids.size();
  report.bytes_reclaimed = bytes;

  // Charge the recovery channel: failure detection plus shipping the
  // reclaimed state back over whatever path survived.
  clock_.advance(config_.recovery_latency +
                 static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                          config_.recovery_bandwidth_bps *
                                          1e9));

  // There is nowhere left to offload to: stop raising triggers and tell the
  // registry not to hand this surrogate out again.
  resource_monitor_.note_peer_failure();
  if (surrogate_registry_ != nullptr && registered_surrogate_.valid()) {
    surrogate_registry_->mark_dead(registered_surrogate_);
  }

  failures_.push_back(report);
  AIDE_LOG_INFO("platform", "surrogate failed at ", report.at,
                "ns; reclaimed ", report.objects_reclaimed, " objects (",
                report.bytes_reclaimed / 1024, "KB), continuing local");
  return true;
}

std::optional<OffloadReport> Platform::offload_now(
    std::optional<std::int64_t> min_free_override) {
  if (offloading_in_progress_ || surrogate_dead_ ||
      mode_ == Mode::disconnected) {
    return std::nullopt;
  }
  offloading_in_progress_ = true;

  exec_monitor_.prune_dead_components();
  const auto req = make_request(min_free_override);
  const auto decision =
      partition::decide_partitioning(exec_monitor_.graph(), req);

  if (!decision.offload) {
    AIDE_LOG_INFO("platform", "no beneficial partitioning (",
                  decision.candidates_total, " candidates)");
    offloading_in_progress_ = false;
    return std::nullopt;
  }

  // Assertion mode: the dynamic decision must agree with the static verdict.
  // A pin root may never offload; with hints enabled the whole pinned
  // closure may not either. A violation is a partitioner bug, not a policy
  // outcome — fail loudly.
  if (config_.assert_static_verdict && analysis_.has_value()) {
    for (const auto& comp : decision.selected.offload) {
      const bool illegal =
          analysis_->is_pin_root(comp.cls) ||
          (config_.use_static_hints && analysis_->in_closure(comp.cls));
      if (illegal) {
        offloading_in_progress_ = false;
        throw std::logic_error(
            "static/dynamic verdict mismatch: partitioner selected pinned "
            "class '" +
            registry_->get(comp.cls).name + "' for offload");
      }
    }
  }

  // Gather the client-resident objects of every selected component. The
  // monitor's component mapping respects the granularity policy: an
  // object-granularity array moves alone; a class component moves all of its
  // (class-mapped) objects. One bucket per selected component, in the
  // selection's iteration order; a single id-ordered heap pass fills the
  // class components' buckets, so each comes out sorted.
  std::vector<std::vector<ObjectId>> members;
  std::vector<std::size_t> bucket_of;  // class id -> 1 + bucket index
  for (const auto& comp : decision.selected.offload) {
    auto& bucket = members.emplace_back();
    if (comp.is_object_granularity()) {
      if (client_->is_local(comp.object)) bucket.push_back(comp.object);
    } else {
      if (comp.cls.value() >= bucket_of.size()) {
        bucket_of.resize(comp.cls.value() + 1, 0);
      }
      bucket_of[comp.cls.value()] = members.size();
    }
  }
  if (!bucket_of.empty()) {
    client_->heap().for_each([&](const vm::Object& o) {
      if (o.cls.value() >= bucket_of.size()) return;
      const std::size_t b = bucket_of[o.cls.value()];
      // Objects promoted to their own component do not move with the class.
      if (b != 0 && exec_monitor_.component_of(o.cls, o.id) ==
                        graph::ComponentKey{o.cls}) {
        members[b - 1].push_back(o.id);
      }
    });
  }
  std::vector<ObjectId> to_move;
  std::vector<std::vector<ObjectId>> groups;
  for (auto& bucket : members) {
    to_move.insert(to_move.end(), bucket.begin(), bucket.end());
    // MINCUT put these objects in one component because they are accessed
    // together; that is exactly the read-ahead transport's prefetch unit.
    if (bucket.size() > 1) groups.push_back(std::move(bucket));
  }
  std::sort(to_move.begin(), to_move.end());

  OffloadReport report;
  report.decision = decision;
  report.at = clock_.now();
  report.client_heap_used_before = client_->heap().used();
  if (!to_move.empty()) {
    try {
      report.bytes_migrated = client_ep_->migrate_objects(to_move);
    } catch (const PeerUnavailable&) {
      // The surrogate died under the migration. migrate_objects already put
      // the batch wherever it authoritatively lives; reclaim it and carry on
      // fully local.
      offloading_in_progress_ = false;
      handle_peer_failure();
      return std::nullopt;
    }
  }
  report.objects_migrated = to_move.size();
  if (!to_move.empty()) {
    // Seed the client transport's read-ahead with the colocation groups this
    // decision just shipped: a remote get against one member prefetches the
    // neighbors it will be accessed with.
    client_ep_->set_prefetch_groups(std::move(groups));
  }
  report.completed_at = clock_.now();
  report.client_heap_used_after = client_->heap().used();

  AIDE_LOG_INFO("platform", "offloaded ", report.objects_migrated,
                " objects, ", report.bytes_migrated, " bytes, heap ",
                report.client_heap_used_before / 1024, "KB -> ",
                report.client_heap_used_after / 1024, "KB");

  offloads_.push_back(report);
  last_offload_min_free_ = min_free_override;
  offloading_in_progress_ = false;
  return report;
}

// --- disconnected operation ----------------------------------------------------

bool Platform::enter_disconnected_mode() {
  mode_ = Mode::disconnected;
  // Reconnect probing starts one probe_interval from now; the reconcile
  // budget is per-episode, so a flappy link gets a fresh allowance each time.
  last_reconcile_probe_at_ = clock_.now();
  reconcile_attempts_ = 0;
  // A fresh disconnection era: gravity harvested from the previous
  // reconcile no longer describes the working set this episode will build.
  reoffload_gravity_.clear();

  DisconnectReport report;
  report.at = clock_.now();

  // Enumerate the surrogate's surviving working set (sorted: determinism of
  // the hoard order, and thus of every downstream byte).
  std::vector<ObjectId> ids;
  surrogate_->heap().for_each(
      [&](const vm::Object& o) { ids.push_back(o.id); });
  std::sort(ids.begin(), ids.end());

  // Sever the pair: no regular RPC may charge the partitioned link, and the
  // release handlers become no-ops. Refs are preserved — unlike a surrogate
  // death, both heaps survive and reconcile needs them to keep resolving.
  client_ep_->detach_partitioned();

  // Hoard: adopt a *replica* (copy) of every surrogate-resident object into
  // the client heap, replacing its stub. Unlike handle_peer_failure the
  // surrogate keeps its originals — it is provably idle while partitioned
  // (the two VMs never execute simultaneously), and those originals are the
  // replay target at reconcile time. Each replica is pinned until the whole
  // batch lands so a client GC forced mid-loop cannot reclaim replicas only
  // referenced from surrogate-side state.
  std::uint64_t bytes = 0;
  for (const ObjectId id : ids) {
    const vm::Object* obj = surrogate_->find_object(id);
    bytes += static_cast<std::uint64_t>(obj->size_bytes());
    client_->migrate_in(std::make_unique<vm::Object>(*obj));
    client_->add_root(vm::ObjectRef{id});
  }
  for (const ObjectId id : ids) {
    client_->remove_root(vm::ObjectRef{id});
  }

  // Install the redo log watching exactly the replicas, BEFORE flushing the
  // write-behind queue: the queued stores now target local replicas and
  // their local application must be captured for replay like any other
  // disconnected-era mutation.
  disconnect_log_.clear_entries();
  disconnect_log_.watch(ids);
  hoarded_ids_ = std::move(ids);
  client_->set_redo_log(&disconnect_log_);
  client_ep_->flush_pending();

  // Charge the recovery channel for the hoard: partition detection plus
  // shipping the replicas over whatever path survived (the same cost model
  // as failure reintegration — hoarding is reintegration that keeps a copy).
  clock_.advance(config_.recovery_latency +
                 static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                          config_.recovery_bandwidth_bps *
                                          1e9));

  // No offload target while partitioned: stop raising triggers. The registry
  // is NOT told the surrogate died — it is expected back.
  resource_monitor_.note_peer_failure();
  client_ep_->note_disconnect_detected();

  report.objects_hoarded = hoarded_ids_.size();
  report.bytes_hoarded = bytes;
  disconnects_.push_back(report);
  AIDE_LOG_INFO("platform", "partition detected at ", report.at,
                "ns; hoarded ", report.objects_hoarded, " replicas (",
                report.bytes_hoarded / 1024, "KB), running disconnected");
  return true;
}

void Platform::sync_partition_stats() {
  client_ep_->note_partition_stats(
      disconnect_log_.ops_journaled() - synced_journaled_,
      disconnect_log_.ops_coalesced() - synced_coalesced_);
  synced_journaled_ = disconnect_log_.ops_journaled();
  synced_coalesced_ = disconnect_log_.ops_coalesced();
}

void Platform::maybe_reconcile() {
  if (reconcile_attempts_ >= config_.disconnect.max_reconciles) {
    return;
  }
  if (last_reconcile_probe_at_ != 0 &&
      clock_.now() - last_reconcile_probe_at_ <
          config_.disconnect.probe_interval) {
    return;
  }
  last_reconcile_probe_at_ = clock_.now();
  const auto probe = link_.try_one_way(config_.disconnect.probe_bytes,
                                       clock_.now(), netsim::Leg::request);
  if (!probe.delivered) return;
  clock_.advance(probe.cost);
  reconcile();
}

void Platform::reconcile() {
  reconcile_attempts_ += 1;
  sync_partition_stats();
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);

  bool applied = false;
  try {
    applied = client_ep_->reconcile_log(disconnect_log_);
  } catch (const PeerUnavailable&) {
    // Unreachable with the log not applied: keep the log, keep the replicas,
    // retry on a later probe. Exactly-once holds because nothing landed.
    applied = false;
  } catch (const VmError&) {
    // The peer rejected or rolled back the replay (semantic failure). The
    // serving side unwound atomically, so the log is still intact to retry.
    applied = false;
  }

  const auto& traces = client_ep_->reconciles();
  const bool acked = applied && !traces.empty() && traces.back().committed;
  if (applied) {
    // The mutations landed exactly once; they must never replay again. A
    // fresh log accumulates whatever the application writes from here on.
    disconnects_.back().reconciles += 1;
    disconnects_.back().entries_replayed += traces.back().entries;
    // Harvest allocation gravity while the log still holds its values: the
    // live field entries are the attach points the reconciled roots hold
    // into everything built while disconnected.
    collect_reoffload_gravity();
    disconnect_log_.clear_entries();
  }
  if (!acked) {
    // Either not applied (retry the same log later) or applied with the ack
    // lost (fresh log, still partitioned). Both stay disconnected, and the
    // refs stay: the next attempt reconciles with the same surviving heap.
    client_ep_->detach_partitioned();
    return;
  }

  // Applied and acked over a live link: resume partitioned execution. Drop
  // the replicas — the surrogate's replayed originals are authoritative
  // again — leaving stubs behind so remote access resolves as before.
  client_->set_redo_log(nullptr);
  for (const ObjectId id : hoarded_ids_) {
    if (client_->is_local(id)) {
      (void)client_->migrate_out(id);  // discard the replica, keep the stub
    }
  }
  hoarded_ids_.clear();
  disconnect_log_.reset();
  synced_journaled_ = 0;
  synced_coalesced_ = 0;
  mode_ = Mode::connected;
  resource_monitor_.note_peer_recovered();
  disconnects_.back().resumed = true;
  disconnects_.back().resumed_at = clock_.now();
  AIDE_LOG_INFO("platform", "reconciled ",
                disconnects_.back().entries_replayed,
                " redo entries; partitioned execution resumed at ",
                clock_.now(), "ns");

  // Everything the application allocated while away sits on the client, but
  // the remote working set it interleaves with went back with the replicas —
  // left split, the rest of the run ping-pongs across the link for state the
  // partitioner would colocate. Re-run the offload decision under the same
  // admission threshold that produced the pre-partition placement, seeded
  // with the harvested allocation gravity so the rebuilt tree outranks a
  // cheaper-to-cut sliver; a "no beneficial partitioning" verdict leaves
  // everything where it is. The gravity keys are allocation-site components,
  // so the seed stays live for trigger-driven evaluations after this one —
  // a short outage reconciles before the program has rebuilt much, and the
  // tree it keeps growing at those same sites still needs the pull. A new
  // disconnection starts a fresh era (enter_disconnected_mode clears).
  (void)offload_now(last_offload_min_free_);
}

void Platform::collect_reoffload_gravity() {
  if (config_.disconnect.reoffload_gravity_credit <= 0.0) return;
  // BFS over client-local references from the redo log's watch set: the
  // hoarded replicas (still client-local here — they drop only after the
  // ack) plus every live journaled value. Everything reachable belongs to
  // the working tree the disconnected program used or rebuilt — allocation-
  // heavy apps grow that tree under hoarded containers without journaling a
  // single surrogate write, so the hoard seeds are what find it — and that
  // tree is exactly what the post-reconcile re-offload should pull back
  // together.
  std::vector<ObjectId> stack(hoarded_ids_.begin(), hoarded_ids_.end());
  disconnect_log_.for_each_live_value([&](const vm::Value& v) {
    if (v.is_ref()) stack.push_back(v.as_ref().id);
  });
  std::unordered_set<ObjectId> seen;
  while (!stack.empty()) {
    const ObjectId id = stack.back();
    stack.pop_back();
    if (!seen.insert(id).second) continue;
    if (!client_->is_local(id)) continue;
    const vm::Object* o = client_->find_object(id);
    if (o == nullptr) continue;
    reoffload_gravity_.insert(exec_monitor_.component_of(o->cls, id));
    for (const vm::Value& f : o->fields) {
      if (f.is_ref()) stack.push_back(f.as_ref().id);
    }
  }
}

void Platform::maybe_proactive_recall() {
  const DisconnectPolicy& pol = config_.disconnect;
  if (!pol.enabled || pol.degrade_rtt <= 0 || !offloaded()) return;
  const rpc::RttEstimator& rtt = client_ep_->rtt_estimator();
  if (!rtt.primed ||
      static_cast<SimDuration>(rtt.srtt) <= pol.degrade_rtt) {
    return;
  }
  if (last_recall_at_ != 0 &&
      clock_.now() - last_recall_at_ < pol.probe_interval) {
    return;
  }
  last_recall_at_ = clock_.now();

  // Choose what to hoard with the static hints: prefetch-eligible classes
  // (encapsulated writes) are exactly the objects the client can keep
  // coherent locally, so they come home first while the link still works.
  const analysis::StaticHints* hints = nullptr;
  if (verify_.has_value()) {
    hints = &verify_->hints;
  } else if (analysis_.has_value()) {
    hints = &analysis_->hints;
  }
  if (hints == nullptr || hints->prefetch_eligible.empty()) return;

  std::vector<ObjectId> ids;
  surrogate_->heap().for_each([&](const vm::Object& o) {
    if (std::binary_search(hints->prefetch_eligible.begin(),
                           hints->prefetch_eligible.end(), o.cls)) {
      ids.push_back(o.id);
    }
  });
  std::sort(ids.begin(), ids.end());
  if (ids.empty()) return;

  try {
    // A real reverse migration over the live (if slow) link: two-phase,
    // epoch-fenced, rollback on death — the surrogate keeps nothing.
    const std::uint64_t bytes = surrogate_ep_->migrate_objects(ids);
    recalls_.push_back(RecallReport{clock_.now(), ids.size(), bytes});
    AIDE_LOG_INFO("platform", "degrading link (srtt ",
                  static_cast<SimDuration>(rtt.srtt), "ns): recalled ",
                  ids.size(), " objects (", bytes / 1024, "KB)");
  } catch (const PeerUnavailable&) {
    // The link died under the recall; migrate_objects already rolled the
    // batch to wherever it authoritatively lives. Let the normal failure
    // path (which may choose disconnected mode) take it from here.
    handle_peer_failure();
  }
}

}  // namespace aide::platform
