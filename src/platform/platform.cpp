#include "platform/platform.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/log.hpp"

namespace aide::platform {

namespace {

// A lone platform is nodes 1 and 2; session nodes start above them. NodeId
// feeds the top 16 bits of every ObjectId the VM mints ((node << 48) |
// counter), so distinct nodes give every session a disjoint object-id space
// on top of the RefMap handle namespaces.
constexpr std::uint32_t kSessionNodeBase = 16;

// Allocation-gravity credit (cut-weight units per byte, scaled by the
// request's EdgeWeightFn::bytes_factor) that offload decisions after a
// reconcile grant to components of the working tree the program used or
// rebuilt while disconnected, so that tree outranks the cheapest-to-cut
// sliver (DESIGN.md §11). The seed lasts until the next disconnection.
constexpr double kReoffloadGravityCredit = 1.0;

// Sets a flag for one scope and restores its previous value on every exit,
// exceptions included.
class FlagScope {
 public:
  explicit FlagScope(bool& flag) noexcept : flag_(flag), prev_(flag) {
    flag_ = true;
  }
  ~FlagScope() { flag_ = prev_; }
  FlagScope(const FlagScope&) = delete;
  FlagScope& operator=(const FlagScope&) = delete;

 private:
  bool& flag_;
  bool prev_;
};

std::unique_ptr<vm::Vm> make_vm(bool client, const PlatformConfig& config,
                                std::optional<SessionId> session,
                                std::shared_ptr<const vm::ClassRegistry> reg,
                                SimClock& clock) {
  vm::VmConfig cfg;
  cfg.name = client ? "client" : "surrogate";
  cfg.node = NodeId{client ? 1u : 2u};
  if (session.has_value()) {
    cfg.node =
        NodeId{kSessionNodeBase + 2 * session->value() + (client ? 0u : 1u)};
    cfg.name += '#';
    cfg.name += std::to_string(session->value());
  }
  cfg.is_client = client;
  cfg.cpu_speed = client ? 1.0 : config.surrogate_speedup;
  cfg.heap_capacity = client ? config.client_heap : config.surrogate_heap;
  if (client) {
    cfg.gc_alloc_count_threshold = config.client_gc_alloc_count_threshold;
    cfg.gc_alloc_bytes_divisor = config.client_gc_alloc_bytes_divisor;
  }
  cfg.stateless_natives_local = config.enhancements.stateless_natives_local;
  return std::make_unique<vm::Vm>(cfg, std::move(reg), clock);
}

}  // namespace

Platform::Platform(std::shared_ptr<const vm::ClassRegistry> registry,
                   PlatformConfig config)
    : Platform(registry, config, own_clock_, std::nullopt,
               std::make_shared<const analysis::StartupGates>(
                   analysis::run_startup_gates(*registry,
                                               config.static_analysis,
                                               config.effect_verify)),
               nullptr) {}

Platform::Platform(std::shared_ptr<const vm::ClassRegistry> registry,
                   PlatformConfig config, SimClock& clock,
                   std::optional<SessionId> session,
                   std::shared_ptr<const analysis::StartupGates> gates,
                   std::unique_ptr<vm::Vm> device)
    : config_(std::move(config)),
      clock_(clock),
      link_(config_.link),
      registry_(std::move(registry)),
      gates_(std::move(gates)),
      client_(device != nullptr
                  ? std::move(device)
                  : make_vm(true, config_, session, registry_, clock_)),
      surrogate_(make_vm(false, config_, session, registry_, clock_)),
      client_ep_(std::make_unique<rpc::Endpoint>(*client_, link_)),
      surrogate_ep_(std::make_unique<rpc::Endpoint>(*surrogate_, link_)),
      exec_monitor_(registry_,
                    monitor::MonitorConfig{monitor::GranularityPolicy{
                        config_.enhancements.arrays_as_objects,
                        config_.enhancements.min_array_bytes,
                        {registry_->int_array_class()}}}),
      resource_monitor_(client_->node(), config_.trigger) {
  if (session.has_value()) {
    // Session-unique handle namespaces must be in place before the first
    // export, i.e. before any traffic.
    client_ep_->set_session(*session);
    surrogate_ep_->set_session(*session);
  }
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);

  link_.set_fault_plan(config_.fault_plan);
  client_ep_->set_batching(config_.batching);
  surrogate_ep_->set_batching(config_.batching);
  if (const analysis::BatchSafety* oracle = gates_->oracle()) {
    client_ep_->set_batch_safety(oracle);
    surrogate_ep_->set_batch_safety(oracle);
  }
  // Exactly-once recovery needs the undo journal; fault-free runs keep it
  // off (an adopted device's too) so they stay bit-identical to the
  // unjournaled platform.
  client_->set_journal_enabled(config_.fault_plan.enabled());
  surrogate_->set_journal_enabled(config_.fault_plan.enabled());
  if (config_.disconnect.enabled) {
    // Arm the partition detector. Passive — counters and timestamps only —
    // so arming it never perturbs a schedule; it only changes what the
    // peer-lost transition decides when an RPC is finally abandoned.
    client_ep_->arm_partition_detector();
    // The surrogate's endpoint carries call-backs and release traffic; a
    // partition first surfaces on whichever side happens to be mid-RPC, so
    // both detectors must be armed and the transition consults both.
    surrogate_ep_->arm_partition_detector();
  }
  client_ep_->set_peer_failure_handler([this] { return handle_peer_failure(); });

  // The execution monitor takes both VMs' monitor slots. The platform
  // observes the client's GC reports, and its op ticks only when they can
  // act: connected, an op tick is a heartbeat (nothing while idle_after is
  // 0), and only an armed disconnect policy reaches the disconnected state.
  client_->add_hooks(&exec_monitor_);
  vm::EventMask ticks = vm::kGcEvents;
  if (config_.heartbeat.idle_after > 0 || config_.disconnect.enabled) {
    ticks |= vm::kInvokeEvents | vm::kAccessEvents;
  }
  client_->add_hooks(this, ticks);
  surrogate_->add_hooks(&exec_monitor_);
  // A fresh client's heap is empty; an adopted device's live objects predate
  // this monitor, which must learn them or a later free would drive their
  // component memory negative.
  client_->heap().for_each([&](const vm::Object& o) {
    exec_monitor_.on_alloc(client_->node(), o.id, o.cls, o.size_bytes(),
                           clock_.now());
  });

  client_->set_low_memory_handler(
      [this](vm::Vm& vm) { return low_memory_rescue(vm); });
}

Platform::~Platform() {
  if (client_ != nullptr) (void)release_client();
  surrogate_->remove_hooks(&exec_monitor_);
}

std::unique_ptr<vm::Vm> Platform::release_client() {
  client_->remove_hooks(this);
  client_->remove_hooks(&exec_monitor_);
  client_->set_low_memory_handler(nullptr);
  client_->set_extra_roots_provider(nullptr);
  client_->set_stub_release_handler(nullptr);
  client_->set_redo_log(nullptr);
  return std::move(client_);
}

PlatformConfig Platform::config_for(const SurrogateInfo& surrogate,
                                    PlatformConfig base) {
  base.surrogate_heap = surrogate.heap_capacity;
  base.surrogate_speedup = surrogate.cpu_speed;
  base.link = surrogate.link;
  return base;
}

// --- the link state machine ----------------------------------------------------

void Platform::on_gc(NodeId vm, const vm::GcReport& report) {
  resource_monitor_.on_gc(vm, report);
  tick(vm, LinkEvent::gc_tick);
}

void Platform::on_invoke(const vm::InvokeEvent& ev) {
  tick(ev.vm, LinkEvent::op_tick);
}

void Platform::on_access(const vm::AccessEvent& ev) {
  // A compute-heavy stretch can burn hundreds of simulated milliseconds
  // inside one method without a single invocation exit or GC; data accesses
  // are the only events dense enough to notice the link there.
  tick(ev.vm, LinkEvent::op_tick);
}

void Platform::tick(NodeId vm, LinkEvent event) {
  if (vm != client_->node() || offloading_in_progress_) return;
  if (event == LinkEvent::gc_tick) {
    transition(event);
    return;
  }
  // Op ticks fire inside a probe's or a reconcile's own traffic and must not
  // re-enter. GC ticks may: see the commit order in transition().
  if (in_op_tick_) return;
  const FlagScope op_tick(in_op_tick_);
  transition(event);
}

void Platform::transition(LinkEvent event) {
  LinkGuards g;
  g.disconnect_armed = config_.disconnect.enabled;
  g.partition_suspected = event == LinkEvent::peer_lost &&
                          g.disconnect_armed &&
                          (client_ep_->partition_suspected() ||
                           surrogate_ep_->partition_suspected());
  g.readmission_enabled = config_.readmission.enabled;
  g.readmissions_capped = readmissions_.size() >= kMaxReadmissions;
  g.reconciles_capped = probes_delivered_ >= kMaxReconciles;
  const LinkStep step = link_step(link_state_, event, g);
  // Commit before acting: pulling objects home can GC, and the GC tick that
  // re-enters here must already see the new state.
  link_state_ = step.next;
  switch (step.action) {
    case LinkAction::none: return;
    case LinkAction::heartbeat: heartbeat(); return;
    case LinkAction::maintain: maintain(); return;
    case LinkAction::probe: probe(); return;
    case LinkAction::sync: sync_partition_stats(); return;
    case LinkAction::sync_probe:
      sync_partition_stats();
      probe();
      return;
    case LinkAction::hoard: pull_back(/*partition=*/true); return;
    case LinkAction::reclaim: pull_back(/*partition=*/false); return;
    case LinkAction::reconcile: reconcile(); return;
    case LinkAction::retain: client_ep_->detach_partitioned(); return;
    case LinkAction::resume: resume(); return;
    case LinkAction::readmit: readmit(); return;
  }
}

bool Platform::handle_peer_failure() {
  transition(LinkEvent::peer_lost);
  return true;
}

void Platform::heartbeat() {
  const SimDuration idle = config_.heartbeat.idle_after;
  if (idle <= 0 || !offloaded()) return;
  if (clock_.now() - client_ep_->last_contact() < idle) return;
  if (!client_ep_->ping()) handle_peer_failure();
}

void Platform::maintain() {
  heartbeat();
  if (link_state_ != LinkState::connected) return;
  recall();
  if (link_state_ != LinkState::connected) return;
  // Each re-admission is entitled to one migration beyond max_offloads.
  if (!config_.auto_offload ||
      offloads_.size() >= config_.max_offloads + readmissions_.size()) {
    return;
  }
  if (resource_monitor_.triggered()) {
    resource_monitor_.consume_trigger();
    offload_now();
  }
}

bool Platform::probe_due() {
  if (last_probe_at_ != 0 &&
      clock_.now() - last_probe_at_ < config_.probe_interval) {
    return false;
  }
  last_probe_at_ = clock_.now();
  return true;
}

void Platform::probe() {
  if (!probe_due()) return;
  probes_sent_ += 1;
  const auto delivery =
      link_.try_one_way(kProbeBytes, clock_.now(), netsim::Leg::request);
  if (!delivery.delivered) return;
  probes_delivered_ += 1;
  clock_.advance(delivery.cost);
  transition(LinkEvent::probe_delivered);
}

void Platform::pull_back(bool partition) {
  // Each loss is a new episode: probing starts one interval from now, and a
  // partition starts a fresh gravity era.
  last_probe_at_ = clock_.now();
  probes_sent_ = 0;
  probes_delivered_ = 0;
  if (partition) reoffload_gravity_.clear();
  const SimTime at = clock_.now();

  // Sorted: the pull-back order fixes every downstream byte.
  std::vector<ObjectId> ids;
  surrogate_->heap().for_each(
      [&](const vm::Object& o) { ids.push_back(o.id); });
  std::sort(ids.begin(), ids.end());

  // Sever the pair so no RPC charges the lost link. A partition keeps both
  // RefMaps: cross-VM references into the replay target must survive.
  if (partition) {
    client_ep_->detach_partitioned();
  } else {
    client_ep_->disconnect();
  }

  // A death moves the originals home; a partition copies replicas (the
  // surrogate is idle while partitioned). Each object stays pinned until
  // the batch lands: a GC forced mid-loop cannot yet see the surrogate-side
  // references among them.
  std::uint64_t bytes = 0;
  for (const ObjectId id : ids) {
    std::unique_ptr<vm::Object> obj =
        partition ? std::make_unique<vm::Object>(*surrogate_->find_object(id))
                  : surrogate_->migrate_out(id);
    bytes += static_cast<std::uint64_t>(obj->size_bytes());
    client_->migrate_in(std::move(obj));
    client_->add_root(vm::ObjectRef{id});
  }
  for (const ObjectId id : ids) {
    client_->remove_root(vm::ObjectRef{id});
  }
  const std::size_t objects = ids.size();
  if (partition) {
    // Install the redo log watching exactly the replicas BEFORE flushing the
    // write-behind queue: the queued stores now target local replicas and
    // must be journaled for replay like any other disconnected-era write.
    disconnect_log_.clear_entries();
    disconnect_log_.watch(ids);
    hoarded_ids_ = std::move(ids);
    client_->set_redo_log(&disconnect_log_);
  }
  // Queued write-behind ops now target local objects; land them before the
  // application resumes.
  client_ep_->flush_pending();

  // Charge the recovery channel: loss detection plus shipping state home.
  clock_.advance(kRecoveryLatency +
                 static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                          kRecoveryBandwidthBps * 1e9));

  // Nowhere to offload to: stop raising triggers.
  resource_monitor_.note_peer_failure();
  if (partition) {
    // The registry is NOT told: a partitioned surrogate is expected back.
    client_ep_->note_disconnect_detected();
    disconnects_.push_back(DisconnectReport{at, objects, bytes});
    AIDE_LOG_INFO("platform", "partition detected at ", at, "ns; hoarded ",
                  objects, " replicas (", bytes / 1024,
                  "KB), running disconnected");
    return;
  }
  if (surrogate_registry_ != nullptr && registered_surrogate_.valid()) {
    surrogate_registry_->mark_dead(registered_surrogate_);
  }
  failures_.push_back(FailureReport{at, objects, bytes});
  AIDE_LOG_INFO("platform", "surrogate failed at ", at, "ns; reclaimed ",
                objects, " objects (", bytes / 1024,
                "KB), continuing local");
}

void Platform::readmit() {
  // The revived surrogate's heap is empty (its state moved home at the
  // death). A fresh epoch fences every pre-failure frame; the memory
  // pressure that forced the original offload did not go away, so re-offload
  // now.
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);
  client_ep_->advance_epoch();
  readmissions_.push_back(ReadmissionReport{
      clock_.now(), readmissions_.size() + 1, probes_sent_, false});
  resource_monitor_.note_peer_recovered();
  if (surrogate_registry_ != nullptr && registered_surrogate_.valid()) {
    surrogate_registry_->mark_alive(registered_surrogate_);
  }
  readmissions_.back().reoffloaded = offload_with_fallback().has_value();
  AIDE_LOG_INFO("platform", "surrogate re-admitted at ",
                readmissions_.back().at, "ns (probe #",
                readmissions_.back().probes_sent, "), re-offload ",
                readmissions_.back().reoffloaded ? "succeeded" : "deferred");
}

std::optional<OffloadReport> Platform::offload_with_fallback() {
  auto report = offload_now();
  if (!report.has_value()) report = offload_now(std::int64_t{1});
  return report;
}

bool Platform::low_memory_rescue(vm::Vm&) {
  // Failing the allocation is strictly worse than any partitioning that
  // frees something. offload_now refuses while away or re-entered.
  return offload_with_fallback().has_value();
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
  req.link = config_.link;
  const SimTime since = offloads_.empty() ? 0 : offloads_.back().at;
  req.history_duration = std::max<SimDuration>(clock_.now() - since, 1);
  if (!reoffload_gravity_.empty()) {
    req.reoffload_gravity = &reoffload_gravity_;
    req.gravity_credit_per_byte =
        kReoffloadGravityCredit * req.weight.bytes_factor;
  }
  if (config_.use_static_hints) req.hints = gates_->hints();
  return req;
}

std::optional<OffloadReport> Platform::offload_now(
    std::optional<std::int64_t> min_free_override) {
  if (offloading_in_progress_ || link_state_ != LinkState::connected) {
    return std::nullopt;
  }
  const FlagScope busy(offloading_in_progress_);

  exec_monitor_.prune_dead_components();
  const auto req = make_request(min_free_override);
  const auto decision =
      partition::decide_partitioning(exec_monitor_.graph(), req);

  if (!decision.offload) {
    AIDE_LOG_INFO("platform", "no beneficial partitioning (",
                  decision.candidates_total, " candidates)");
    return std::nullopt;
  }

  // Whenever aidelint ran, the dynamic decision must agree with its static
  // verdict. A pin root may never offload; with hints enabled the whole pinned
  // closure may not either. A violation is a partitioner bug, not a policy
  // outcome — fail loudly.
  const auto& analysis = gates_->analysis;
  if (analysis.has_value()) {
    for (const auto& comp : decision.selected.offload) {
      const bool illegal =
          analysis->is_pin_root(comp.cls) ||
          (config_.use_static_hints && analysis->in_closure(comp.cls));
      if (illegal) {
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
    const std::optional<std::uint64_t> bytes = migrate(to_move);
    if (!bytes.has_value()) return std::nullopt;  // carrying on fully local
    report.bytes_migrated = *bytes;
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
  return report;
}

std::optional<std::uint64_t> Platform::migrate(std::span<const ObjectId> ids) {
  if (link_state_ != LinkState::connected) return std::nullopt;
  std::optional<std::uint64_t> bytes;
  bool peer_lost = false;
  {
    const FlagScope busy(offloading_in_progress_);
    try {
      bytes = client_ep_->migrate_objects(ids);
    } catch (const PeerUnavailable&) {
      // The surrogate died under the migration; reclaimed below.
      peer_lost = true;
    } catch (const VmError& e) {
      // Refused: the surrogate had no room for the batch and adopted none
      // of it. The batch is back on the client and the link is fine.
      if (e.code() != VmErrorCode::out_of_memory) throw;
    }
  }
  if (peer_lost) handle_peer_failure();
  return bytes;
}

// --- disconnected operation ----------------------------------------------------

void Platform::sync_partition_stats() {
  client_ep_->note_partition_stats(
      disconnect_log_.ops_journaled() - synced_journaled_,
      disconnect_log_.ops_coalesced() - synced_coalesced_);
  synced_journaled_ = disconnect_log_.ops_journaled();
  synced_coalesced_ = disconnect_log_.ops_coalesced();
}

void Platform::reconcile() {
  sync_partition_stats();
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);

  bool applied = false;
  try {
    applied = client_ep_->reconcile_log(disconnect_log_);
  } catch (const PeerUnavailable&) {
    // Unreachable with the log not applied: exactly-once holds because
    // nothing landed, so a later probe retries the same log.
  } catch (const VmError&) {
    // The peer rejected or rolled back the replay (semantic failure). The
    // serving side unwound atomically, so the log is still intact to retry.
  }

  const auto& traces = client_ep_->reconciles();
  const bool acked = applied && !traces.empty() && traces.back().committed;
  if (applied) {
    // The mutations landed exactly once; they must never replay again. A
    // fresh log accumulates whatever the application writes from here on.
    disconnects_.back().reconciles += 1;
    disconnects_.back().entries_replayed += traces.back().items;
    // Harvest allocation gravity while the log still holds its values: the
    // live field entries are the attach points the reconciled roots hold
    // into everything built while disconnected.
    collect_reoffload_gravity();
    disconnect_log_.clear_entries();
  }
  transition(acked ? LinkEvent::reconcile_acked
                   : LinkEvent::reconcile_unacked);
}

void Platform::resume() {
  // Applied and acked over a live link: drop the replicas — the surrogate's
  // replayed originals are authoritative again — leaving stubs behind so
  // remote access resolves as before.
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
  resource_monitor_.note_peer_recovered();
  disconnects_.back().resumed = true;
  disconnects_.back().resumed_at = clock_.now();
  AIDE_LOG_INFO("platform", "reconciled ",
                disconnects_.back().entries_replayed,
                " redo entries; partitioned execution resumed at ",
                clock_.now(), "ns");

  // What the application allocated while away sits on the client, split from
  // the working set it interleaves with: re-run the offload decision under
  // the pre-partition admission threshold, seeded with the harvested
  // allocation gravity (DESIGN.md §11). "No beneficial partitioning" leaves
  // everything where it is.
  (void)offload_now(last_offload_min_free_);
}

void Platform::collect_reoffload_gravity() {
  // BFS over client-local references from the hoarded replicas (still local
  // until the ack) and every live journaled value: the working tree the
  // disconnected program used or rebuilt, even under containers it never
  // journaled a write to.
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

void Platform::recall() {
  const DisconnectPolicy& pol = config_.disconnect;
  if (!pol.enabled || pol.degrade_rtt <= 0 || !offloaded()) return;
  const rpc::RttEstimator& rtt = client_ep_->rtt_estimator();
  if (!rtt.primed ||
      static_cast<SimDuration>(rtt.srtt) <= pol.degrade_rtt) {
    return;
  }
  if (!probe_due()) return;

  // Choose what to hoard with the static hints: prefetch-eligible classes
  // (encapsulated writes) are exactly the objects the client can keep
  // coherent locally, so they come home first while the link still works.
  const analysis::StaticHints* hints = gates_->hints();
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
    // batch to wherever it authoritatively lives. The peer-lost transition
    // (which may choose disconnected) takes it from here.
    handle_peer_failure();
  } catch (const VmError& e) {
    // The client had no room for the batch: recalled nothing, the batch
    // stays on the surrogate.
    if (e.code() != VmErrorCode::out_of_memory) throw;
  }
}

}  // namespace aide::platform
