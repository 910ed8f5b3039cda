// RPC endpoint: the remote-execution boundary between two VMs.
//
// Each VM owns one Endpoint; connect() cross-wires a pair. An outgoing
// operation is encoded to bytes, charged against the simulated link, decoded
// by the peer endpoint, executed on the peer VM (possibly recursing back —
// the paper's surrogate transparently refers back to the client for native
// methods and static data), and the response travels the same way.
//
// The endpoint also implements:
//  * reference translation over its RefMap tables (paper 3.2),
//  * object migration with a two-section encoding that tolerates reference
//    cycles among co-migrated objects,
//  * the distributed-GC release protocol ("a simple distributed garbage
//    collection scheme", paper section 4),
//  * fault tolerance: bounded retry-with-backoff against the link's
//    FaultPlan (the retry envelope is a block of constants beside the
//    partition detector's thresholds, in partition_detector.hpp),
//    at-most-once execution via a sequence-numbered reply cache, and
//    local-fallback recovery when the peer is unrecoverably gone,
//  * crash-consistent transport: every message travels in a CRC32-checked
//    frame carrying the sender's migration epoch and sequence number, so
//    corrupted frames are rejected (and retried), duplicated frames are
//    absorbed by the reply cache, and stale/reordered frames from a previous
//    exchange or epoch are fenced instead of decoded,
//  * one epoch-fenced two-phase transfer, shared by object migration and
//    the disconnected client's redo-log reconcile: PREPARE stages raw bytes,
//    COMMIT applies them atomically, so a link death at any message boundary
//    rolls back to bit-identical pre-transfer state, and a COMMIT whose ack
//    was lost is proven applied by the epoch the peer records once it has
//    applied one (TransferTrace::applied_on_peer),
//  * adaptive failure detection: a Jacobson-style RTT estimator over the
//    transport legs shortens the retry timeout once samples exist, and
//    ping() gives the platform an idle-period heartbeat probe,
//  * batched, pipelined transport (set_batching, on by default): void ops
//    are write-behind and coalesce with the next synchronous op into one
//    multi-op frame under a single [crc][epoch][seq] header; remote reads
//    fetch whole-object snapshots plus their MINCUT group neighbors
//    (read-ahead); pure-write flushes under an inert fault plan overlap
//    their acknowledgement with subsequent compute in virtual time. A
//    timeout voids and retries a multi-op frame as a unit, and the serving
//    side executes it inside one journal scope so rollback is batch-atomic.
//
// Each mechanism has one routine: the four stores go through store(), both
// invokes through invoke_remote() (and one serving case), every top-level
// recovery ends in recover_locally(), and both teardowns in sever().
//
// Execution is synchronous and serial, matching the paper's emulator model:
// "the two VMs do not execute application code simultaneously".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/batch_oracle.hpp"
#include "common/counters.hpp"
#include "common/error.hpp"
#include "netsim/link.hpp"
#include "rpc/partition_detector.hpp"
#include "rpc/refmap.hpp"
#include "rpc/serializer.hpp"
#include "vm/redo_log.hpp"
#include "vm/remote.hpp"
#include "vm/vm.hpp"

namespace aide::rpc {

struct EndpointStats {
  std::uint64_t rpcs_sent = 0;
  std::uint64_t rpcs_served = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t releases_sent = 0;
  std::uint64_t migrations_sent = 0;
  std::uint64_t objects_migrated_out = 0;
  std::uint64_t bytes_migrated_out = 0;
  // Fault-tolerance accounting (all zero under an inert FaultPlan).
  std::uint64_t retries = 0;          // re-sent attempts after a timeout
  std::uint64_t timeouts = 0;         // attempts that produced no response
  std::uint64_t aborted_rpcs = 0;     // RPCs abandoned as PeerUnavailable
  std::uint64_t duplicates_served = 0;  // dedup hits in the reply cache
  std::uint64_t recovered_rpcs = 0;   // RPCs completed via local fallback
  // Frame-level accounting (all zero without chaos injection).
  std::uint64_t corrupt_frames_rejected = 0;  // CRC mismatches discarded
  std::uint64_t stale_frames_fenced = 0;   // old-seq/old-epoch frames fenced
  std::uint64_t duplicate_frames_dropped = 0;  // redundant copies discarded
  std::uint64_t heartbeats_sent = 0;  // idle-period ping() probes
  // Batched-transport accounting (rpcs_sent counts frames, ops_sent counts
  // logical operations; the gap between them is what batching saved).
  std::uint64_t ops_sent = 0;         // logical data ops issued by the VM
  std::uint64_t batches_sent = 0;     // multi-op frames sent
  std::uint64_t batched_ops = 0;      // ops that travelled inside those frames
  std::uint64_t readahead_hits = 0;   // get_fields served from the snapshot cache
  std::uint64_t snapshots_fetched = 0;   // whole-object snapshots shipped
  std::uint64_t objects_prefetched = 0;  // snapshots beyond the demanded one
  std::uint64_t pending_applied_locally = 0;  // write-behind ops recovered locally
  // Batch-safety accounting (all zero without a BatchSafetyOracle installed).
  std::uint64_t unproven_stores_flushed = 0;  // stores written through eagerly
  std::uint64_t unproven_riders_flushed = 0;  // pre-invoke queue flushes
  // Disconnected-operation accounting (all zero unless the platform's
  // DisconnectPolicy is enabled and a partition actually happens).
  std::uint64_t disconnects_detected = 0;   // partitions the detector tripped
  std::uint64_t ops_journaled = 0;          // mutations captured while away
  std::uint64_t journal_coalesced = 0;      // of those, absorbed by coalescing
  std::uint64_t reconciles_completed = 0;   // redo logs replayed exactly-once
  std::uint64_t reconcile_replayed_ops = 0;  // coalesced entries shipped

  // Accumulates another endpoint's counters into this one. The multi-session
  // surrogate server keeps its transport stats namespaced per session (each
  // session owns its endpoints, so its counters never mix with a neighbor's)
  // and aggregates with this — summing one session's stats into a
  // zero-initialized accumulator reproduces that session's stats
  // byte-identically, so the single-session output is unchanged by the
  // aggregation layer.
  EndpointStats& operator+=(const EndpointStats& o) noexcept {
    return accumulate_counters(*this, o);
  }

  friend bool operator==(const EndpointStats&, const EndpointStats&) = default;
};

// EWMA mean + deviation of the transport round-trip (request leg + reply
// leg, excluding remote execution), per Jacobson's TCP RTO estimator:
// gain 1/8 on the mean, 1/4 on the deviation.
struct RttEstimator {
  double srtt = 0.0;
  double rttvar = 0.0;
  bool primed = false;

  void sample(SimDuration rtt) noexcept {
    const double r = static_cast<double>(rtt);
    if (!primed) {
      srtt = r;
      rttvar = r / 2.0;
      primed = true;
      return;
    }
    const double err = r - srtt;
    srtt += err / 8.0;
    const double abs_err = err < 0 ? -err : err;
    rttvar += (abs_err - rttvar) / 4.0;
  }
};

// Message-boundary timestamps of one epoch-fenced two-phase transfer — a
// migration (items = objects shipped) or a redo-log reconcile (items =
// coalesced redo entries) — recorded so the chaos harness can aim link
// deaths at every boundary of a transfer.
struct TransferTrace {
  std::uint32_t epoch = 0;      // fresh epoch the transfer fenced under
  std::size_t items = 0;        // objects or redo entries shipped
  bool committed = false;       // COMMIT acked
  bool applied_on_peer = false;  // peer applied it (even if the ack was lost)
  SimTime begin = 0;            // entering the transfer (before PREPARE)
  SimTime prepare_acked = 0;    // PREPARE response received
  SimTime commit_acked = 0;     // COMMIT response received
};

class Endpoint final : public vm::RemotePeer, private RefTranslator {
 public:
  Endpoint(vm::Vm& local_vm, netsim::Link& link);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // Cross-wires two endpoints and attaches them as their VMs' peers.
  static void connect(Endpoint& a, Endpoint& b);

  // Severs the pair in both directions: both VMs lose their peer, both
  // RefMaps drop their translations and reply caches are flushed. After a
  // disconnect every surviving object must be made local (the platform's
  // recovery path does exactly that) — stale stubs simply become
  // unreachable garbage.
  void disconnect();
  // Severs the pair like disconnect() but preserves both RefMaps: used when
  // the peer is partitioned (not dead) and its heap will be reconciled with,
  // so cross-VM references must survive the episode.
  void detach_partitioned();

  [[nodiscard]] bool connected() const noexcept { return peer_ != nullptr; }
  [[nodiscard]] vm::Vm& local_vm() noexcept { return vm_; }
  [[nodiscard]] RefMap& refs() noexcept { return refs_; }
  [[nodiscard]] const EndpointStats& stats() const noexcept { return stats_; }

  // Session tag for multi-session surrogate serving: namespaces this
  // endpoint's stats (and its RefMap's handle space) under one session id.
  // The single-session platform never calls this — stats and handles stay
  // exactly as before.
  void set_session(SessionId id) {
    session_ = id;
    refs_.set_handle_namespace(
        static_cast<std::uint16_t>((id.value() % 0xFFFEu) + 1));
  }
  [[nodiscard]] SessionId session() const noexcept { return session_; }

  // Write-behind batching and read-ahead, on by default.
  //
  // Void operations (put_field / put_static / array_put / chars_write) are
  // deferred into a pending queue instead of paying a round trip each: the
  // queue is coalesced into one multi-op frame that goes out when a
  // synchronous operation rides along, when the queue reaches 32 ops, or at
  // a yield point (GC entry, migration, the end of serving an incoming
  // invoke). A queue of exactly one op flushes as a bit-identical legacy
  // frame; an empty flush sends nothing.
  //
  // A remote get_field miss fetches a snapshot of the whole target object —
  // plus up to 4 not-yet-cached neighbors from its MINCUT partition group —
  // in one frame; subsequent reads of those objects are served locally until
  // the peer next has a chance to execute code (any outgoing invoke, any
  // incoming frame, migration, flush).
  //
  // The switch takes effect on the next operation. Turning it off with ops
  // still pending flushes them first so nothing is silently dropped.
  void set_batching(bool on);

  // Read-ahead groups (typically the MINCUT components of the last offload):
  // when a get_field misses the snapshot cache, the demanded object's group
  // mates are prefetched in the same frame. Each group must be sorted so the
  // candidate order — and thus the wire traffic — is deterministic.
  void set_prefetch_groups(std::vector<std::vector<ObjectId>> groups);

  // Batch-safety oracle (non-owning; the platform keeps it alive for the
  // connection's lifetime, nullptr uninstalls). Both verdicts are consumed
  // flush-earlier-only: a refusal sends the same ops in the same order
  // across more frames, never reorders them — so an oracle that proves
  // everything leaves the wire byte-identical to no oracle at all. Installing
  // or replacing one flushes the queue first: queued proofs don't transfer.
  void set_batch_safety(const analysis::BatchSafetyOracle* oracle);
  [[nodiscard]] const analysis::BatchSafetyOracle* batch_safety()
      const noexcept {
    return oracle_;
  }

  // The number of write-behind ops currently queued (test/bench visibility).
  [[nodiscard]] std::size_t pending_ops() const noexcept {
    return pending_.size();
  }

  // The timeout the next attempt would charge: the adaptive Jacobson RTO
  // once the estimator is primed, kTimeout before that.
  [[nodiscard]] SimDuration effective_timeout() const noexcept;
  [[nodiscard]] const RttEstimator& rtt_estimator() const noexcept {
    return rtt_;
  }

  // The current migration-epoch fencing token. Frames from older epochs are
  // rejected; each two-phase transfer (migrate_objects(), reconcile_log())
  // bumps it, and the platform bumps it explicitly when re-admitting a
  // recovered surrogate.
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  void advance_epoch() noexcept { epoch_ += 1; }

  // Heartbeat probe: a null RPC round trip. Returns false (after charging
  // the full retry budget) when the peer is unreachable; never throws.
  bool ping();

  // Virtual time of the last successful exchange with the peer, in either
  // direction. Drives the platform's idle-period heartbeat scheduling.
  [[nodiscard]] SimTime last_contact() const noexcept { return last_contact_; }

  // Message-boundary traces of every migration this endpoint initiated
  // (including aborted ones, with committed == false).
  [[nodiscard]] const std::vector<TransferTrace>& migrations() const noexcept {
    return migrations_;
  }

  // --- disconnected operation ----------------------------------------------

  // Partition detection (off unless the platform arms it). The detector is
  // fed passively from the retry loop: any delivered frame resets it, any
  // expired attempt advances it. Suspicion never aborts an RPC by itself —
  // the platform consults partition_suspected() from its peer-failure
  // handler to choose Disconnected mode over teardown.
  void arm_partition_detector() noexcept { detector_.arm(); }
  [[nodiscard]] bool partition_suspected() const noexcept {
    return detector_.suspected(vm_.clock().now());
  }

  // Disconnect-mode stat attribution (the redo log lives in the VM layer and
  // the mode machine in the platform; both report through the endpoint so
  // fleet aggregation sees one EndpointStats).
  void note_disconnect_detected() noexcept { stats_.disconnects_detected += 1; }
  void note_partition_stats(std::uint64_t journaled_delta,
                            std::uint64_t coalesced_delta) noexcept {
    stats_.ops_journaled += journaled_delta;
    stats_.journal_coalesced += coalesced_delta;
  }

  // Replays a DisconnectLog against the (reconnected) peer exactly-once via
  // epoch-fenced two-phase PREPARE/COMMIT: a fresh epoch fences every stale
  // frame, PREPARE stages the encoded log with no heap effects, COMMIT
  // applies it batch-atomically inside one journal scope — the same transfer
  // migration uses. Returns true when the peer applied the log, including the
  // COMMIT-executed-but-ack-lost case. Throws PeerUnavailable when the peer is
  // unreachable with the log NOT applied (safe to retry later with the same
  // log). Appends a TransferTrace either way.
  bool reconcile_log(const vm::DisconnectLog& log);

  // Message-boundary traces of every reconcile this endpoint initiated
  // (including failed ones, with committed == false).
  [[nodiscard]] const std::vector<TransferTrace>& reconciles() const noexcept {
    return reconciles_;
  }

  // Installed on the client endpoint by the platform: invoked when an RPC is
  // abandoned at the top level; returns true once every surviving object is
  // local again so the failed operation can be completed locally.
  void set_peer_failure_handler(std::function<bool()> handler) {
    peer_failure_handler_ = std::move(handler);
  }

  // Retrieves (and consumes) the reply frame this endpoint served for the
  // peer's sequence number `seq`, if it is still cached (nullptr if not).
  // The recovery path uses it to salvage an executed-but-undelivered
  // response instead of running the call twice. In-process stand-in for a
  // recovery-channel cache flush.
  SharedFrame take_cached_response(std::uint64_t seq);

  // --- vm::RemotePeer (outgoing operations) --------------------------------

  vm::Value invoke(ObjectId target, ClassId cls, MethodId method,
                   std::span<const vm::Value> args) override;
  vm::Value invoke_static(ClassId cls, MethodId method,
                          std::span<const vm::Value> args) override;
  vm::Value get_field(ObjectId target, FieldId field) override;
  void put_field(ObjectId target, FieldId field, const vm::Value& v) override;
  vm::Value get_static(ClassId cls, std::uint32_t slot) override;
  void put_static(ClassId cls, std::uint32_t slot,
                  const vm::Value& v) override;
  vm::Value array_get(ObjectId target, std::int64_t index) override;
  void array_put(ObjectId target, std::int64_t index,
                 const vm::Value& v) override;
  std::int64_t array_length(ObjectId target) override;
  std::string chars_read(ObjectId target, std::int64_t offset,
                         std::int64_t length) override;
  void chars_write(ObjectId target, std::int64_t offset,
                   std::string_view data) override;
  void release(std::span<const ObjectId> ids) override;

  // Yield-point barrier (vm::RemotePeer): sends the write-behind queue as
  // one multi-op frame (a single op as a legacy frame, nothing when empty)
  // and invalidates the read-ahead cache. Under an inert fault plan the
  // flush is pipelined — only the request leg is charged to this VM's clock;
  // the acknowledgement overlaps the compute that follows. Called from GC
  // this swallows peer failure (recovery would be re-entrant there) and
  // keeps the idempotent queue for the next top-level operation to recover.
  void flush_pending() override;

  // Offloads the given local objects to the peer VM. Returns the number of
  // payload bytes shipped. Stubs are left behind; the peer exports the
  // adopted objects back so future references resolve. On PeerUnavailable
  // the batch is reinstated locally (unless the peer already adopted it) and
  // the error propagates for the platform to handle. A COMMIT the peer
  // refuses (no heap room for the whole batch) adopts nothing: the batch is
  // reinstated, still exported, and the peer's VmError propagates.
  std::uint64_t migrate_objects(std::span<const ObjectId> ids);

 private:
  enum class Op : std::uint8_t {
    invoke = 1,
    invoke_static = 2,
    get_field = 3,
    put_field = 4,
    get_static = 5,
    put_static = 6,
    array_get = 7,
    array_put = 8,
    array_len = 9,
    chars_read = 10,
    chars_write = 11,
    release = 12,
    migrate_prepare = 13,  // stage the encoded batch (no heap effects)
    migrate_commit = 14,   // atomically adopt the staged batch
    ping = 15,             // heartbeat: reply immediately, no side effects
    batch = 16,       // multi-op frame: N length-prefixed single-op requests
    get_object = 17,  // read-ahead: snapshot whole objects + group neighbors
    reconcile_prepare = 18,  // stage the encoded redo log (no heap effects)
    reconcile_commit = 19,   // atomically replay the staged redo log
  };

  // One write-behind operation: the encoded legacy request (exports already
  // registered, so referenced values stay GC-rooted until the flush) plus
  // enough decoded state to re-apply the idempotent store locally when the
  // peer dies before the queue drains.
  struct PendingOp {
    Op kind = Op::put_field;
    ObjectId target;            // put_field / array_put / chars_write
    std::uint32_t key = 0;      // field id, or class id for put_static
    std::uint32_t slot = 0;     // static slot
    std::int64_t index = 0;     // array index / chars offset
    vm::Value value;
    std::string data;           // chars_write payload
    std::vector<std::uint8_t> encoded;
  };

  // RefTranslator.
  WireRef translate_out(vm::ObjectRef ref) override;
  vm::ObjectRef translate_in(const WireRef& wire) override;

  // Sends an encoded request across the link with bounded retry and returns
  // the decoded-raw response bytes. Throws VmError if the peer reported one,
  // PeerUnavailable when the retry budget is exhausted. `ops` is the number
  // of logical operations the frame carries (link-level accounting); with
  // `pipelined` and an inert fault plan the reply leg is accounted but not
  // charged to this VM's clock — the ack overlaps subsequent compute.
  std::vector<std::uint8_t> transact(ByteWriter request, std::uint32_t ops = 1,
                                     bool pipelined = false);

  // transact() with the write-behind queue riding along: the pending ops and
  // `op` coalesce into one multi-op frame (just `op`, bit-identically, when
  // the queue is empty). Returns the final sub-reply's payload with its
  // status byte stripped; a rider's remote VmError is rethrown here. On
  // success (or remote VmError — the peer owns the executed prefix either
  // way) the queue is cleared; on PeerUnavailable it is kept for recovery.
  std::vector<std::uint8_t> transact_with_pending(ByteWriter op);

  // The recovery tail of every top-level operation; must be called from a
  // PeerUnavailable catch block. Rethrows while serving a peer frame or when
  // nobody recovers us; otherwise the platform pulls state back and the
  // queued idempotent stores are re-applied to the now-local targets.
  void recover_locally();

  // transact_with_pending() + recover_locally(): nullopt tells the caller to
  // complete the (idempotent) operation against now-local state.
  std::optional<std::vector<std::uint8_t>> transact_or_recover(ByteWriter op);

  // The one client-side invoke path (op is invoke or invoke_static; target
  // is ignored for the latter), and the one way either side runs a call.
  vm::Value invoke_remote(Op op, ObjectId target, ClassId cls,
                          MethodId method, std::span<const vm::Value> args);
  vm::Value run_invoke(Op op, ObjectId target, ClassId cls, MethodId method,
                       std::span<const vm::Value> args);
  // An invoke's recovery: the salvaged reply when the peer executed the call
  // and only the response was lost, nullopt when the caller must re-run it
  // locally (the journal since `mark` rolled back). `riders` is how many
  // write-behind ops were coalesced ahead of the invoke in its frame.
  std::optional<vm::Value> recover_invoke(const PeerUnavailable& e,
                                          std::size_t mark,
                                          std::size_t riders);

  // The one store path (put_field / put_static / array_put / chars_write):
  // defers `rec` when batching and the oracle allow it; otherwise drains the
  // queue and writes `encoded` through, landing the store locally when the
  // peer is lost on the way.
  void store(PendingOp&& rec, ByteWriter encoded);
  void apply_locally(const PendingOp& p);

  // Write-behind plumbing. send_queue drains strictly (PeerUnavailable
  // propagates, queue kept); flush_or_recover is the top-level form that
  // falls back to platform recovery plus local re-application.
  [[nodiscard]] bool batching_live() const noexcept {
    return batching_ && peer_ != nullptr;
  }
  void enqueue_pending(PendingOp rec, ByteWriter encoded);
  void send_queue();
  void flush_or_recover();
  void apply_pending_locally();

  // Read-ahead plumbing.
  void invalidate_snapshots() noexcept { snapshots_.clear(); }
  [[nodiscard]] const vm::Value* snapshot_lookup(ObjectId target,
                                                 FieldId field) const;
  std::optional<vm::Value> fetch_snapshot(ObjectId target, FieldId field);

  // Receiving side of the framed transport: validates the CRC, fences stale
  // seq/epoch frames, replays the cached reply for a retried sequence number
  // and serves fresh requests. Returns the sealed response, or nullptr when
  // the frame was rejected — indistinguishable from a lost message to the
  // sender, which times out and retries.
  SharedFrame receive_frame(const SharedFrame& wire);

  // Serves one request on the receiving side (dispatches multi-op frames to
  // serve_batch, everything else to serve_one). `request` points into
  // `carrier`, the frame it arrived in; PREPARE staging holds on to it.
  std::vector<std::uint8_t> serve(std::span<const std::uint8_t> request,
                                  const SharedFrame& carrier);
  std::vector<std::uint8_t> serve_one(std::span<const std::uint8_t> request,
                                      const SharedFrame& carrier);
  // Executes a multi-op frame as a unit: sub-ops run in order inside one
  // journal scope, so an abandoned nested call rolls the whole batch back
  // (no partial application); a sub-op's semantic error stops the batch and
  // travels back in that op's reply section.
  std::vector<std::uint8_t> serve_batch(std::span<const std::uint8_t> request,
                                        const SharedFrame& carrier);

  // Severs the pair in both directions, dropping connection-scoped
  // transport state (staged transfer, reply cache, retransmission copies,
  // snapshots); the RefMaps too unless `keep_refs`.
  void sever(bool keep_refs);

  // Epoch-fenced two-phase transfer shared by migration and reconcile: bumps
  // the epoch, sends `prepare` (staged by the peer with no heap effects),
  // then a `commit_op` COMMIT naming `items`, and appends the TransferTrace
  // to `log` whatever the outcome. Returns the COMMIT reply; PeerUnavailable
  // propagates with the trace's applied_on_peer telling whether the COMMIT
  // ran, and a VmError (the peer refused the transfer) with nothing applied.
  std::vector<std::uint8_t> two_phase(ByteWriter prepare, Op commit_op,
                                      std::size_t items,
                                      std::vector<TransferTrace>& log);
  // COMMIT bodies, both all-or-nothing: adopt a staged migration batch
  // (making heap room for all of it before adopting any, and replying the
  // export handles), or replay a staged redo log batch-atomically (one
  // journal scope; any VmError rolls the whole replay back and rethrows).
  void adopt_objects(ByteReader& sr, std::uint32_t count, ByteWriter& out);
  void replay_redo(ByteReader& sr, std::uint32_t count);

  // Reconcile wire format. Values travel self-described (tag + payload);
  // refs as raw [id][class][kind] rather than export handles — during a
  // partition both heaps hold the same object ids (the replicas were copies),
  // so the receiver resolves an id local-first and installs a stub for
  // disconnected-era objects it has never seen.
  void write_redo_value(ByteWriter& w, const vm::Value& v,
                        const vm::DisconnectLog& log);
  vm::Value read_redo_value(ByteReader& r);
  void write_redo_entry(ByteWriter& w, const vm::RedoEntry& e,
                        const vm::DisconnectLog& log);

  [[nodiscard]] bool fault_tolerant() const noexcept {
    return link_.fault_plan().enabled();
  }

  // Resolves an incoming wire target (our export handle) to a local object.
  ObjectId resolve_target(ByteReader& r);
  void write_target(ByteWriter& w, ObjectId id);

  vm::Vm& vm_;
  netsim::Link& link_;
  Endpoint* peer_ = nullptr;
  RefMap refs_;
  EndpointStats stats_;
  SessionId session_ = SessionId::invalid();
  bool batching_ = true;
  std::function<bool()> peer_failure_handler_;

  const analysis::BatchSafetyOracle* oracle_ = nullptr;

  // Write-behind queue: encoded-but-unsent void ops awaiting coalescing.
  std::vector<PendingOp> pending_;
  // Read-ahead snapshot cache: whole-object field images of peer objects.
  // Valid only until the peer can next execute code; the two VMs never run
  // application code simultaneously, so every such boundary is explicit
  // (outgoing invoke, incoming frame, migration, flush) and clears it.
  std::unordered_map<ObjectId, std::vector<vm::Value>> snapshots_;
  // Prefetch groups (sorted member lists) and the member -> group index.
  std::vector<std::vector<ObjectId>> groups_;
  std::unordered_map<ObjectId, std::size_t> group_of_;

  // Outgoing sequence numbers, carried in the frame header.
  std::uint64_t next_seq_ = 0;
  // Migration-epoch fencing token. Starts at 1 on both sides; each transfer
  // bumps the initiator's copy and the receiver adopts the higher value from
  // the frame header, so frames from before an offload are always stale.
  std::uint32_t epoch_ = 1;
  // Single-entry reply cache (armed fault plans only): execution is
  // synchronous and serial, so only the most recent request can ever be
  // retried. Shares the sealed reply with last_resp_frame_.
  std::uint64_t last_served_seq_ = 0;
  SharedFrame cached_response_;
  // Last frames sent in each direction: what a reordered delivery presents
  // to the receiver in place of the in-flight frame.
  SharedFrame last_req_frame_;
  SharedFrame last_resp_frame_;
  // Bytes a PREPARE staged (a migration batch or a redo log, not yet
  // applied): a view into the frame that carried them, which the stage keeps
  // alive, tagged with the epoch it was staged under and the one COMMIT
  // opcode that may apply it. Dropped on disconnect, superseded by any
  // later PREPARE.
  struct Staged {
    SharedFrame carrier;
    std::span<const std::uint8_t> bytes;
    std::uint32_t epoch = 0;
    Op commit = Op::migrate_commit;
  };
  std::optional<Staged> staged_;
  // Epoch of the last COMMIT this endpoint fully applied, so an initiator
  // whose COMMIT ack was lost can tell applied from not applied.
  std::uint32_t last_committed_epoch_ = 0;
  // Adaptive failure detection.
  RttEstimator rtt_;
  SimTime last_contact_ = 0;
  std::vector<TransferTrace> migrations_;
  std::vector<TransferTrace> reconciles_;
  PartitionDetector detector_;
  // Depth of serve() frames on this endpoint; recovery must only run at the
  // top level, never while a peer frame is live above us on the stack.
  int serving_depth_ = 0;
};

}  // namespace aide::rpc
