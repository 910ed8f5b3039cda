#include "rpc/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace aide::rpc {

namespace {
constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusVmError = 1;
// Write-behind queue depth that forces a flush, and the group mates one
// read-ahead miss may prefetch beside the demanded object.
constexpr std::size_t kMaxOps = 32;
constexpr std::size_t kPrefetchLimit = 4;
// The rest of the retry envelope (partition_detector.hpp has the public
// part): the backoff between attempts doubles from 25 ms up to 400 ms, and
// the Jacobson RTO is srtt + 4 * rttvar.
constexpr SimDuration kBackoffInitial = sim_ms(25);
constexpr SimDuration kBackoffMax = sim_ms(400);
constexpr double kRttDevMultiplier = 4.0;

// Chaos corruption: wire byte `salt % size` arrives flipped. Copy-on-write,
// so the shared original (still needed for retransmits) is never touched.
SharedFrame corrupted_copy(const Frame& frame, std::uint64_t salt) {
  auto copy = std::make_shared<Frame>(frame);
  const std::size_t at = salt % copy->size();
  std::uint8_t& byte = at < kFrameHeaderSize
                           ? copy->header[at]
                           : copy->payload[at - kFrameHeaderSize];
  byte ^= 0xFF;
  return copy;
}

// Consumes a reply's status byte, rethrowing the VmError the peer reported.
void check_status(ByteReader& r) {
  if (r.read_u8() == kStatusVmError) {
    const auto code = static_cast<VmErrorCode>(r.read_u8());
    throw VmError(code, "remote: " + r.read_string());
  }
}

// Walks a batch reply's sections in place and returns the last one's payload
// past its status byte; `executed` receives the section count. A section's
// VmError is rethrown: the batch stopped there, so ops after it never ran —
// the same prefix semantics as issuing the ops one at a time.
std::span<const std::uint8_t> read_sections(ByteReader& r,
                                            std::uint32_t& executed) {
  executed = r.read_u32();
  std::span<const std::uint8_t> last;
  for (std::uint32_t i = 0; i < executed; ++i) {
    last = read_op_section(r);
    ByteReader sr(last);
    check_status(sr);
  }
  return last.empty() ? last : last.subspan(1);
}

std::vector<std::uint8_t> error_reply(const VmError& e) {
  ByteWriter err;
  err.write_u8(kStatusVmError);
  err.write_u8(static_cast<std::uint8_t>(e.code()));
  err.write_string(e.what());
  return std::move(err).take();
}
}  // namespace

Endpoint::Endpoint(vm::Vm& local_vm, netsim::Link& link)
    : vm_(local_vm), link_(link) {
  vm_.set_extra_roots_provider(
      [this](const std::function<void(ObjectId)>& visit) {
        refs_.for_each_export(visit);
      });
  vm_.set_stub_release_handler([this](std::span<const ObjectId> ids) {
    if (peer_ != nullptr) release(ids);
  });
}

void Endpoint::connect(Endpoint& a, Endpoint& b) {
  a.peer_ = &b;
  b.peer_ = &a;
  a.vm_.set_peer(&a);
  b.vm_.set_peer(&b);
}

void Endpoint::disconnect() { sever(/*keep_refs=*/false); }

// The partition flavor of disconnect(): both heaps survive and will be
// reconciled with each other, so every cross-VM reference must keep
// resolving after the link returns. Export tables stay registered on both
// sides — they are the GC roots that keep referenced objects (including the
// surrogate originals the redo log replays into) alive across the
// disconnected epoch. Only transport state dies.
void Endpoint::detach_partitioned() { sever(/*keep_refs=*/true); }

void Endpoint::sever(bool keep_refs) {
  for (Endpoint* side : {peer_, this}) {
    if (side == nullptr) continue;
    side->peer_ = nullptr;
    side->vm_.set_peer(nullptr);
    if (!keep_refs) side->refs_.clear();
    // A PREPARE-staged transfer dies with the connection: it never touched
    // the heap, so dropping the bytes is the rollback. The reply cache, the
    // reorder injector's frame copies and read-ahead snapshots of the peer's
    // objects go with it. The write-behind queue survives: after recovery
    // its targets are local and flush_pending/apply_pending_locally lands it.
    side->cached_response_.reset();
    side->staged_.reset();
    side->last_req_frame_.reset();
    side->last_resp_frame_.reset();
    side->invalidate_snapshots();
    // A new connection epoch starts the partition detector fresh: the old
    // link's timeout run and silence window say nothing about the new link.
    side->detector_.reset(side->vm_.clock().now());
  }
}

SharedFrame Endpoint::take_cached_response(std::uint64_t seq) {
  if (seq != last_served_seq_) return nullptr;
  return std::exchange(cached_response_, nullptr);
}

// --- reference translation ----------------------------------------------------

WireRef Endpoint::translate_out(vm::ObjectRef ref) {
  WireRef wire;
  wire.id = ref.id;
  wire.cls = vm_.class_of(ref.id);
  if (vm::Object* obj = vm_.find_object(ref.id); obj != nullptr) {
    wire.kind = obj->kind;
    wire.owner = vm_.node();
    wire.handle = refs_.export_object(ref.id);
  } else {
    // A stub: the peer owns the object, so the raw id is sufficient — the
    // owner resolves its own ids directly (see translate_in). Deliberately
    // do NOT embed the import handle: encoded requests can sit in the
    // write-behind queue across a GC cycle (or a link outage), and a stub
    // release delivered in between would leave a dangling handle frozen in
    // the queued bytes. Ids never dangle on the owner. The handle field is
    // fixed-width, so frame sizes and timing are unchanged.
    wire.owner = peer_ != nullptr ? peer_->vm_.node() : NodeId::invalid();
    wire.handle = ExportHandle::invalid();
    wire.kind = vm::ObjectKind::plain;  // refined on the receiving side
  }
  return wire;
}

vm::ObjectRef Endpoint::translate_in(const WireRef& wire) {
  if (wire.owner == vm_.node()) {
    // A reference to one of our own objects came back.
    if (wire.handle.valid()) {
      const ObjectId id = refs_.resolve_export(wire.handle);
      assert(id == wire.id);
      return vm::ObjectRef{id};
    }
    if (vm_.is_local(wire.id)) return vm::ObjectRef{wire.id};
    throw VmError(VmErrorCode::null_reference,
                  "wire ref to unknown local object");
  }
  // The peer owns it: hold a stub and remember the peer's handle.
  vm_.install_stub(wire.id, wire.cls, wire.kind);
  if (wire.handle.valid()) refs_.note_import(wire.handle, wire.id);
  return vm::ObjectRef{wire.id};
}

// --- transport ----------------------------------------------------------------

SimDuration Endpoint::effective_timeout() const noexcept {
  if (!rtt_.primed) return kTimeout;
  const auto rto =
      static_cast<SimDuration>(rtt_.srtt + kRttDevMultiplier * rtt_.rttvar);
  return std::clamp(rto, kMinTimeout, kTimeout);
}

bool Endpoint::ping() {
  if (peer_ == nullptr) return false;
  stats_.heartbeats_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::ping));
  try {
    (void)transact(std::move(w));
    return true;
  } catch (const PeerUnavailable&) {
    return false;
  }
}

std::vector<std::uint8_t> Endpoint::transact(ByteWriter request,
                                             std::uint32_t ops,
                                             bool pipelined) {
  if (peer_ == nullptr) {
    throw VmError(VmErrorCode::null_reference, "endpoint not connected");
  }
  // Pipelining overlaps the delivered reply's airtime with whatever the
  // caller computes next; a lost reply still pays the full timeout/retry
  // machinery below. The decision must not depend on whether a fault plan
  // is armed: an armed-but-inert plan stays bit-identical to fault-free.
  const bool overlap_reply = pipelined;
  stats_.rpcs_sent += 1;
  const std::uint64_t seq = ++next_seq_;
  // Sealed once; every attempt (and the retransmit slot) shares this buffer.
  const SharedFrame frame = seal_frame(epoch_, seq, std::move(request).take());

  SimDuration backoff = kBackoffInitial;
  for (int attempt = 1;; ++attempt) {
    SharedFrame reply;  // the accepted reply frame, once one arrives
    SimDuration rtt_sample = 0;

    const auto req_leg = link_.try_one_way(frame->size(), vm_.clock().now(),
                                           netsim::Leg::request);
    if (req_leg.delivered) {
      stats_.bytes_sent += frame->size();
      link_.note_ops(ops);
      vm_.clock().advance(req_leg.cost);

      SharedFrame resp_frame;
      // Snapshot the peer's previous response before serving: a reordered
      // reply leg presents this stale frame, not the one being produced now
      // (nor one a nested call-back leaves behind).
      const SharedFrame prev_resp_frame = peer_->last_resp_frame_;
      try {
        if (req_leg.reordered) {
          // The in-flight frame is delayed past its timeout; what arrives
          // now is a stale retransmit of the previous request, which the
          // peer fences (or dedups from its reply cache) without executing.
          // Held locally: a call-back could replace last_req_frame_ while
          // the peer still reads the stale frame.
          if (const SharedFrame stale = last_req_frame_; stale != nullptr) {
            (void)peer_->receive_frame(stale);
          }
        } else {
          const SharedFrame wire =
              req_leg.corrupted ? corrupted_copy(*frame, req_leg.chaos_salt)
                                : frame;
          resp_frame = peer_->receive_frame(wire);
          if (req_leg.duplicated) {
            // The second copy reaches the peer too; its reply cache absorbs
            // it and the redundant response is discarded in the air.
            (void)peer_->receive_frame(wire);
          }
        }
      } catch (const PeerUnavailable&) {
        // A nested call the peer made while serving us was abandoned; the
        // peer rolled back its partial frame. Not retryable — re-sending
        // would re-execute side effects the peer already unwound once.
        stats_.aborted_rpcs += 1;
        throw PeerUnavailable(seq, "peer failed while serving rpc");
      }

      if (resp_frame != nullptr) {
        const auto resp_leg = link_.try_one_way(
            resp_frame->size(), vm_.clock().now(), netsim::Leg::reply);
        if (resp_leg.delivered) {
          // A pipelined flush still pays the reply's link accounting, but the
          // wait overlaps whatever this VM computes next in virtual time.
          if (!overlap_reply) vm_.clock().advance(resp_leg.cost);
          // A reordered leg delivers a stale retransmit of the peer's
          // *previous* response in place of the in-flight one; the seq/epoch
          // fence rejects it below and the attempt times out. With no
          // previous response to retransmit, nothing arrives at all.
          SharedFrame arrived = resp_leg.reordered ? prev_resp_frame
                                                   : std::move(resp_frame);
          if (arrived != nullptr && resp_leg.corrupted) {
            arrived = corrupted_copy(*arrived, resp_leg.chaos_salt);
          }
          if (arrived != nullptr) {
            stats_.bytes_received += arrived->size();
            const auto view = parse_frame(*arrived);
            if (!view.has_value()) {
              stats_.corrupt_frames_rejected += 1;
            } else if (view->seq != seq || view->epoch != epoch_) {
              stats_.stale_frames_fenced += 1;
            } else {
              if (resp_leg.duplicated) stats_.duplicate_frames_dropped += 1;
              reply = std::move(arrived);
              rtt_sample = req_leg.cost + resp_leg.cost;
            }
          }
        }
      }
    }

    if (reply != nullptr) {
      // Feed the detector with transport time only (remote execution already
      // advanced the clock between the legs and must not inflate the RTO).
      rtt_.sample(rtt_sample);
      last_contact_ = vm_.clock().now();
      detector_.note_delivery(last_contact_);
      last_req_frame_ = frame;
      ByteReader r(reply->payload);
      check_status(r);
      // The one copy of the reply: its payload minus the status byte.
      return {reply->payload.begin() + 1, reply->payload.end()};
    }

    // No response: the send was refused (link down), a leg was dropped in
    // transit, or the frame that arrived was rejected (corrupt or stale).
    // The sender can't tell the difference — it just times out, waiting the
    // adaptive estimate rather than the configured worst case.
    stats_.timeouts += 1;
    vm_.clock().advance(effective_timeout());
    detector_.note_timeout(vm_.clock().now());
    if (attempt >= kMaxAttempts) {
      // With the partition detector armed, an exhausted retry budget is not
      // yet proof of a *sustained* outage: traffic may have been flowing
      // right up to the cut, so the silence window can be shorter than
      // kSuspectSilence when the budget runs out. Hold the RPC open — keep
      // retrying at the current backoff — until the two resolve: a transient
      // blip delivers on a later attempt and nothing trips, while a true
      // partition crosses the silence floor and aborts into a detector that
      // now answers suspected() == true. Abandonment and suspicion coincide,
      // so the failure handler never mistakes a partition for a dead peer.
      if (!detector_.armed() || detector_.suspected(vm_.clock().now())) {
        stats_.aborted_rpcs += 1;
        throw PeerUnavailable(seq, "rpc aborted after " +
                                       std::to_string(attempt) + " attempts");
      }
    }
    stats_.retries += 1;
    vm_.clock().advance(backoff);
    backoff = std::min(2 * backoff, kBackoffMax);
  }
}

void Endpoint::recover_locally() {
  if (serving_depth_ > 0 || !peer_failure_handler_) throw;
  if (!peer_failure_handler_()) throw;
  // Reintegration made every target local; the deferred stores land there.
  apply_pending_locally();
  stats_.recovered_rpcs += 1;
}

std::optional<std::vector<std::uint8_t>> Endpoint::transact_or_recover(
    ByteWriter op) {
  try {
    return transact_with_pending(std::move(op));
  } catch (const PeerUnavailable&) {
    recover_locally();
    return std::nullopt;
  }
}

// --- write-behind batching ----------------------------------------------------

void Endpoint::set_batching(bool on) {
  // flush_pending also drops the read-ahead snapshots.
  if (!on) flush_pending();
  batching_ = on;
}

void Endpoint::set_prefetch_groups(std::vector<std::vector<ObjectId>> groups) {
  groups_ = std::move(groups);
  group_of_.clear();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (const ObjectId id : groups_[g]) group_of_[id] = g;
  }
}

void Endpoint::set_batch_safety(const analysis::BatchSafetyOracle* oracle) {
  // Queued proofs were made against the old oracle; drain before switching.
  if (oracle != oracle_) flush_pending();
  oracle_ = oracle;
}

// Strict queue drain: the whole queue goes out as one frame (one op as a
// bit-identical legacy frame) and is cleared once the peer owns it, refused
// stores included: a store's semantic error surfaces once. Throws
// PeerUnavailable with the queue intact — every queued op is an idempotent
// absolute store, so whoever catches can re-apply or re-send safely.
void Endpoint::send_queue() {
  if (pending_.empty() || peer_ == nullptr) return;
  const std::size_t count = pending_.size();
  ByteWriter w;
  if (count == 1) {
    w.write_bytes(pending_.front().encoded);
  } else {
    w.write_u8(static_cast<std::uint8_t>(Op::batch));
    w.write_u32(static_cast<std::uint32_t>(count));
    for (const PendingOp& p : pending_) write_op_section(w, p.encoded);
  }
  std::vector<std::uint8_t> resp;
  try {
    resp = transact(std::move(w), static_cast<std::uint32_t>(count),
                    /*pipelined=*/true);
  } catch (const VmError&) {
    // The peer ran the lone store and refused it, as it refuses a batch's
    // first bad rider below.
    pending_.clear();
    throw;
  }
  if (count > 1) {
    stats_.batches_sent += 1;
    stats_.batched_ops += count;
  }
  pending_.clear();
  if (count > 1) {
    // Surface the first rider's semantic error, if any (a pure-write batch
    // carries no demanded value, so this is the only place it can surface).
    ByteReader r(resp);
    std::uint32_t executed = 0;
    (void)read_sections(r, executed);
  }
}

// Top-level flush: recovers like any other RPC when the peer is gone for
// good — state is pulled back and the queued stores re-apply locally.
void Endpoint::flush_or_recover() {
  try {
    send_queue();
  } catch (const PeerUnavailable&) {
    recover_locally();
  }
}

void Endpoint::flush_pending() {
  // Yield point: read-ahead state never survives one (see snapshots_).
  invalidate_snapshots();
  if (pending_.empty()) return;
  if (peer_ == nullptr) {
    // Disconnected after recovery: the targets live here now.
    apply_pending_locally();
    return;
  }
  try {
    send_queue();
  } catch (const PeerUnavailable&) {
    // Called from GC entry, where platform recovery would be re-entrant
    // (exactly like release()). The queue is idempotent and kept; the next
    // top-level operation performs the recovery and re-applies it.
  }
}

void Endpoint::enqueue_pending(PendingOp rec, ByteWriter encoded) {
  rec.encoded = std::move(encoded).take();
  pending_.push_back(std::move(rec));
  if (pending_.size() >= kMaxOps) flush_or_recover();
}

void Endpoint::apply_locally(const PendingOp& p) {
  switch (p.kind) {
    case Op::put_field:
      vm_.raw_put_field(p.target, FieldId{p.key}, p.value);
      break;
    case Op::put_static:
      vm_.raw_put_static(ClassId{p.key}, p.slot, p.value);
      break;
    case Op::array_put:
      vm_.raw_array_put(p.target, p.index, p.value);
      break;
    default:  // chars_write — the only other store
      vm_.raw_chars_write(p.target, p.index, p.data);
      break;
  }
}

void Endpoint::apply_pending_locally() {
  const auto ops = std::move(pending_);
  pending_.clear();
  for (const PendingOp& p : ops) apply_locally(p);
  stats_.pending_applied_locally += ops.size();
}

std::vector<std::uint8_t> Endpoint::transact_with_pending(ByteWriter op) {
  if (pending_.empty()) return transact(std::move(op));

  const std::size_t riders = pending_.size();
  ByteWriter batch;
  batch.write_u8(static_cast<std::uint8_t>(Op::batch));
  batch.write_u32(static_cast<std::uint32_t>(riders + 1));
  for (const PendingOp& p : pending_) write_op_section(batch, p.encoded);
  const auto tail = std::move(op).take();
  write_op_section(batch, tail);
  stats_.batches_sent += 1;
  stats_.batched_ops += riders + 1;

  // While the batch is in flight the riders belong to the wire, not the
  // queue: the peer may nest calls back into this VM while serving the
  // invoke, and the nested serve's trailing flush must not re-send (and
  // consume) ops that are already aboard the very frame being served.
  // PeerUnavailable restores them: recovery re-applies the idempotent
  // riders locally whether or not the batch executed. Any other outcome
  // means the peer owns the executed prefix, so the riders are done.
  auto in_flight = std::move(pending_);
  pending_.clear();
  std::vector<std::uint8_t> resp;
  try {
    resp = transact(std::move(batch), static_cast<std::uint32_t>(riders + 1));
  } catch (const PeerUnavailable&) {
    // Riders first, then whatever nested serving enqueued meanwhile.
    in_flight.insert(in_flight.end(),
                     std::make_move_iterator(pending_.begin()),
                     std::make_move_iterator(pending_.end()));
    pending_ = std::move(in_flight);
    throw;
  }

  ByteReader r(resp);
  std::uint32_t executed = 0;
  // The last section is the demanded op's reply.
  const auto last = read_sections(r, executed);
  if (executed != riders + 1) {
    throw VmError(VmErrorCode::type_mismatch,
                  "batch reply count mismatch without an error");
  }
  return {last.begin(), last.end()};
}

// --- read-ahead snapshots -----------------------------------------------------

const vm::Value* Endpoint::snapshot_lookup(ObjectId target,
                                           FieldId field) const {
  const auto it = snapshots_.find(target);
  if (it == snapshots_.end() || field.value() >= it->second.size()) {
    return nullptr;
  }
  return &it->second[field.value()];
}

std::optional<vm::Value> Endpoint::fetch_snapshot(ObjectId target,
                                                  FieldId field) {
  // The demanded object first, then not-yet-cached remote group mates in
  // their (sorted) group order — a deterministic candidate list.
  std::vector<ObjectId> wanted{target};
  if (const auto git = group_of_.find(target); git != group_of_.end()) {
    for (const ObjectId id : groups_[git->second]) {
      if (wanted.size() > kPrefetchLimit) break;
      if (id == target || snapshots_.contains(id) || vm_.is_local(id)) {
        continue;
      }
      // Group tables outlive the distributed GC: a mate whose stub was
      // released (or that migrated home) is no longer addressable from here.
      if (!vm_.knows(id)) continue;
      wanted.push_back(id);
    }
  }

  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::get_object));
  w.write_u32(static_cast<std::uint32_t>(wanted.size()));
  for (const ObjectId id : wanted) write_target(w, id);

  const auto resp = transact_or_recover(std::move(w));
  if (!resp.has_value()) return vm_.raw_get_field(target, field);

  ByteReader r(*resp);
  const auto count = r.read_u32();
  std::optional<vm::Value> result;
  for (std::uint32_t i = 0; i < count; ++i) {
    const ObjectId id{r.read_u64()};
    const bool present = r.read_u8() != 0;
    if (!present) continue;
    const auto nfields = r.read_u32();
    std::vector<vm::Value> fields;
    fields.reserve(nfields);
    for (std::uint32_t f = 0; f < nfields; ++f) {
      fields.push_back(read_value(r, *this));
    }
    stats_.snapshots_fetched += 1;
    if (i > 0) stats_.objects_prefetched += 1;
    if (id == target && field.value() < fields.size()) {
      result = fields[field.value()];
    }
    snapshots_[id] = std::move(fields);
  }
  // nullopt here (object absent or field out of range) falls back to the
  // legacy per-op path, which produces the authoritative error or value.
  return result;
}

ObjectId Endpoint::resolve_target(ByteReader& r) {
  const WireRef wire = read_wire_ref(r);
  const vm::ObjectRef ref = translate_in(wire);
  return ref.id;
}

void Endpoint::write_target(ByteWriter& w, ObjectId id) {
  write_wire_ref(w, translate_out(vm::ObjectRef{id}));
}

// --- outgoing operations --------------------------------------------------------

std::optional<vm::Value> Endpoint::recover_invoke(const PeerUnavailable& e,
                                                  std::size_t mark,
                                                  std::size_t riders) {
  if (serving_depth_ > 0 || !peer_failure_handler_) {
    // Not the top level (or nobody to recover us): keep the journal entries
    // for the enclosing scope and let the failure propagate.
    vm_.journal_commit();
    throw;
  }

  // The peer may have executed the call and lost only the response; salvage
  // the cached reply before recovery tears the pair down so the call is not
  // run twice.
  const SharedFrame cached =
      peer_ != nullptr ? peer_->take_cached_response(e.seq()) : nullptr;
  if (cached == nullptr) {
    // The call never completed remotely: undo the side effects of any
    // callbacks the partial attempts made into this VM, pull the surviving
    // state back and apply the write-behind queue to the now-local targets;
    // the caller then runs the frame locally from the stub.
    vm_.journal_rollback(mark);
    recover_locally();
    return std::nullopt;
  }
  vm_.journal_commit();
  std::optional<vm::Value> ret;
  try {
    ByteReader r(cached->payload);
    check_status(r);
    auto reply = std::span<const std::uint8_t>(cached->payload).subspan(1);
    if (riders > 0) {
      // A batch reply: the executed sub-ops (riders first, the invoke last)
      // are authoritative on the peer, so the write-behind queue is done —
      // recovery must not re-apply it on top of whatever the invoke computed
      // afterwards. A rider's semantic error stopped the batch before the
      // invoke ran; it surfaces exactly like a remote invoke error.
      pending_.clear();
      std::uint32_t executed = 0;
      reply = read_sections(r, executed);
    }
    // Decode while translations are still wired; refs the dead peer owned
    // become stubs that reintegration resolves to local objects.
    ByteReader body(reply);
    ret = read_value(body, *this);
  } catch (const VmError&) {
    pending_.clear();
    peer_failure_handler_();
    stats_.recovered_rpcs += 1;
    throw;
  }
  peer_failure_handler_();
  stats_.recovered_rpcs += 1;
  return ret;
}

vm::Value Endpoint::run_invoke(Op op, ObjectId target, ClassId cls,
                               MethodId method,
                               std::span<const vm::Value> args) {
  return op == Op::invoke ? vm_.run_incoming_invoke(target, method, args)
                          : vm_.run_incoming_invoke_static(cls, method, args);
}

vm::Value Endpoint::invoke_remote(Op op, ObjectId target, ClassId cls,
                                  MethodId method,
                                  std::span<const vm::Value> args) {
  stats_.ops_sent += 1;
  // The peer is about to execute code: read-ahead snapshots go stale now.
  invalidate_snapshots();
  if (oracle_ != nullptr && !pending_.empty() &&
      !oracle_->invoke_accepts_riders(cls, method)) {
    // The callee's effects are not proven disjoint from the queued stores:
    // flush them as their own frame before the call (never as riders).
    stats_.unproven_riders_flushed += 1;
    flush_or_recover();
    // A drain that lost the peer pulled the callee home: run it here.
    if (peer_ == nullptr) return run_invoke(op, target, cls, method, args);
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(op));
  if (op == Op::invoke) write_target(w, target);
  w.write_u32(cls.value());
  w.write_u32(method.value());
  w.write_u32(static_cast<std::uint32_t>(args.size()));
  for (const auto& a : args) write_value(w, a, *this);

  const std::size_t riders = pending_.size();
  const std::size_t mark = vm_.journal_begin();
  try {
    const auto resp = transact_with_pending(std::move(w));
    ByteReader r(resp);
    const vm::Value ret = read_value(r, *this);
    vm_.journal_commit();
    return ret;
  } catch (const PeerUnavailable& e) {
    if (auto ret = recover_invoke(e, mark, riders)) return *std::move(ret);
    return run_invoke(op, target, cls, method, args);
  } catch (...) {
    // Semantic errors keep their partial effects (the fault-free contract).
    vm_.journal_commit();
    throw;
  }
}

vm::Value Endpoint::invoke(ObjectId target, ClassId cls, MethodId method,
                           std::span<const vm::Value> args) {
  return invoke_remote(Op::invoke, target, cls, method, args);
}

vm::Value Endpoint::invoke_static(ClassId cls, MethodId method,
                                  std::span<const vm::Value> args) {
  return invoke_remote(Op::invoke_static, ObjectId{}, cls, method, args);
}

void Endpoint::store(PendingOp&& rec, ByteWriter encoded) {
  stats_.ops_sent += 1;
  if (batching_live()) {
    if (oracle_ == nullptr || oracle_->store_deferrable()) {
      enqueue_pending(std::move(rec), std::move(encoded));
      return;
    }
    // The oracle refuses this store: drain the queue so program order is
    // preserved, then write through eagerly (flush earlier, never reorder).
    stats_.unproven_stores_flushed += 1;
    flush_or_recover();
  }
  // A drain that lost the peer already pulled every target home.
  if (peer_ == nullptr ||
      !transact_or_recover(std::move(encoded)).has_value()) {
    apply_locally(rec);
  }
}

vm::Value Endpoint::get_field(ObjectId target, FieldId field) {
  stats_.ops_sent += 1;
  if (batching_live()) {
    if (const vm::Value* v = snapshot_lookup(target, field)) {
      stats_.readahead_hits += 1;
      return *v;
    }
    if (auto v = fetch_snapshot(target, field)) {
      return *v;
    }
    // Snapshot miss (non-plain object, unknown field, ...): the legacy
    // per-op path below is authoritative.
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::get_field));
  write_target(w, target);
  w.write_u32(field.value());

  const auto resp = transact_or_recover(std::move(w));
  if (!resp.has_value()) return vm_.raw_get_field(target, field);
  ByteReader r(*resp);
  return read_value(r, *this);
}

void Endpoint::put_field(ObjectId target, FieldId field, const vm::Value& v) {
  // Keep a warm snapshot coherent with the store (the cache is empty
  // whenever writes are not deferred).
  if (const auto it = snapshots_.find(target);
      it != snapshots_.end() && field.value() < it->second.size()) {
    it->second[field.value()] = v;
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::put_field));
  write_target(w, target);
  w.write_u32(field.value());
  write_value(w, v, *this);
  PendingOp rec;
  rec.kind = Op::put_field;
  rec.target = target;
  rec.key = field.value();
  rec.value = v;
  store(std::move(rec), std::move(w));
}

vm::Value Endpoint::get_static(ClassId cls, std::uint32_t slot) {
  stats_.ops_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::get_static));
  w.write_u32(cls.value());
  w.write_u32(slot);

  const auto resp = transact_or_recover(std::move(w));
  if (!resp.has_value()) return vm_.raw_get_static(cls, slot);
  ByteReader r(*resp);
  return read_value(r, *this);
}

void Endpoint::put_static(ClassId cls, std::uint32_t slot,
                          const vm::Value& v) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::put_static));
  w.write_u32(cls.value());
  w.write_u32(slot);
  write_value(w, v, *this);
  PendingOp rec;
  rec.kind = Op::put_static;
  rec.key = cls.value();
  rec.slot = slot;
  rec.value = v;
  store(std::move(rec), std::move(w));
}

vm::Value Endpoint::array_get(ObjectId target, std::int64_t index) {
  stats_.ops_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::array_get));
  write_target(w, target);
  w.write_i64(index);

  const auto resp = transact_or_recover(std::move(w));
  if (!resp.has_value()) return vm_.raw_array_get(target, index);
  ByteReader r(*resp);
  return read_value(r, *this);
}

void Endpoint::array_put(ObjectId target, std::int64_t index,
                         const vm::Value& v) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::array_put));
  write_target(w, target);
  w.write_i64(index);
  write_value(w, v, *this);
  PendingOp rec;
  rec.kind = Op::array_put;
  rec.target = target;
  rec.index = index;
  rec.value = v;
  store(std::move(rec), std::move(w));
}

std::int64_t Endpoint::array_length(ObjectId target) {
  stats_.ops_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::array_len));
  write_target(w, target);

  const auto resp = transact_or_recover(std::move(w));
  if (!resp.has_value()) return vm_.raw_array_length(target);
  ByteReader r(*resp);
  return r.read_i64();
}

std::string Endpoint::chars_read(ObjectId target, std::int64_t offset,
                                 std::int64_t length) {
  stats_.ops_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::chars_read));
  write_target(w, target);
  w.write_i64(offset);
  w.write_i64(length);

  const auto resp = transact_or_recover(std::move(w));
  if (!resp.has_value()) return vm_.raw_chars_read(target, offset, length);
  ByteReader r(*resp);
  return r.read_string();
}

void Endpoint::chars_write(ObjectId target, std::int64_t offset,
                           std::string_view data) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::chars_write));
  write_target(w, target);
  w.write_i64(offset);
  w.write_string(data);
  PendingOp rec;
  rec.kind = Op::chars_write;
  rec.target = target;
  rec.index = offset;
  rec.data = std::string(data);
  store(std::move(rec), std::move(w));
}

void Endpoint::release(std::span<const ObjectId> ids) {
  // Map stubs back to the peer's handles; skip ids we never learned handles
  // for (they were never resolvable remotely anyway).
  std::vector<ExportHandle> handles;
  handles.reserve(ids.size());
  for (const ObjectId id : ids) {
    const ExportHandle h = refs_.import_handle_for(id);
    if (h.valid()) handles.push_back(h);
    refs_.forget_import(id);
  }
  if (handles.empty() || peer_ == nullptr) return;

  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::release));
  w.write_u32(static_cast<std::uint32_t>(handles.size()));
  for (const ExportHandle h : handles) w.write_u64(h.value());
  stats_.releases_sent += 1;
  try {
    transact(std::move(w));
  } catch (const PeerUnavailable&) {
    // Releases run inside GC, where recovery would be re-entrant; the peer
    // is gone, so there is nothing left to release anyway. The next real
    // operation performs the recovery.
  }
}

// --- two-phase transfer ------------------------------------------------------

std::vector<std::uint8_t> Endpoint::two_phase(ByteWriter prepare, Op commit_op,
                                              std::size_t items,
                                              std::vector<TransferTrace>& log) {
  TransferTrace trace;
  trace.begin = vm_.clock().now();
  trace.items = items;
  // A fresh epoch fences every frame still in flight from before this
  // transfer (and from any earlier, abandoned attempt); the PREPARE carries
  // it to the peer.
  advance_epoch();
  trace.epoch = epoch_;
  try {
    (void)transact(std::move(prepare));
    trace.prepare_acked = vm_.clock().now();
    ByteWriter commit;
    commit.write_u8(static_cast<std::uint8_t>(commit_op));
    commit.write_u32(static_cast<std::uint32_t>(items));
    auto resp = transact(std::move(commit));
    trace.commit_acked = vm_.clock().now();
    trace.committed = true;
    trace.applied_on_peer = true;
    log.push_back(trace);
    return resp;
  } catch (...) {
    // A COMMIT records its epoch on the peer only once it has fully applied,
    // and our epochs strictly rise: a peer holding this epoch ran this COMMIT
    // and lost only the ack (PeerUnavailable). PREPARE staged raw bytes at
    // most, and both COMMIT bodies apply all or nothing, so anything short of
    // that (a lost link, or a VmError refusal) left the peer's heap
    // untouched.
    trace.applied_on_peer =
        peer_ != nullptr && peer_->last_committed_epoch_ == trace.epoch;
    log.push_back(trace);
    throw;
  }
}

std::uint64_t Endpoint::migrate_objects(std::span<const ObjectId> ids) {
  if (peer_ == nullptr) {
    throw VmError(VmErrorCode::null_reference, "endpoint not connected");
  }
  // The transfer's epoch bump fences every frame encoded before it, so the
  // write-behind queue must drain first — strictly: a terminal failure here
  // propagates (queue kept) for the platform's recovery to re-apply.
  invalidate_snapshots();
  send_queue();

  // Extract everything first so cross-references among the batch serialize
  // consistently (they all become stubs locally).
  std::vector<std::unique_ptr<vm::Object>> objects;
  objects.reserve(ids.size());
  for (const ObjectId id : ids) objects.push_back(vm_.migrate_out(id));
  // Once the peer holds (or may hold) the batch, its references to these
  // objects resolve locally on the peer.
  const auto release_exports = [&] {
    for (const ObjectId id : ids) refs_.release_export(id);
  };

  ByteWriter prepare;
  prepare.write_u8(static_cast<std::uint8_t>(Op::migrate_prepare));
  prepare.write_u32(static_cast<std::uint32_t>(objects.size()));
  for (const auto& obj : objects) write_object_header(prepare, *obj);
  for (const auto& obj : objects) write_object_payload(prepare, *obj, *this);

  const std::uint64_t bytes = prepare.size();
  stats_.migrations_sent += 1;
  stats_.objects_migrated_out += objects.size();
  stats_.bytes_migrated_out += bytes;

  std::vector<std::uint8_t> resp;
  try {
    resp = two_phase(std::move(prepare), Op::migrate_commit, objects.size(),
                     migrations_);
  } catch (const PeerUnavailable&) {
    // Adopted but unacked: the peer's copies are authoritative and
    // reintegration will pull them back. Otherwise reinstating our extracted
    // copies restores the exact pre-offload state, no matter which message
    // boundary the link died at.
    release_exports();
    if (!migrations_.back().applied_on_peer) {
      for (auto& obj : objects) vm_.migrate_in(std::move(obj));
    }
    throw;
  } catch (const VmError&) {
    // Refused with nothing adopted over a live link: the batch comes home
    // still exported, so the peer's stubs of it keep resolving here.
    for (auto& obj : objects) vm_.migrate_in(std::move(obj));
    throw;
  }
  release_exports();

  ByteReader r(resp);
  const auto count = r.read_u32();
  if (count != objects.size()) {
    throw OffloadError(OffloadErrorCode::protocol_error,
                       "migration response count mismatch");
  }
  // The peer exported the adopted objects back to us; remember the handles so
  // our stubs resolve on future operations.
  for (std::uint32_t i = 0; i < count; ++i) {
    const ExportHandle h{r.read_u64()};
    refs_.note_import(h, objects[i]->id);
  }
  return bytes;
}

void Endpoint::adopt_objects(ByteReader& sr, std::uint32_t count,
                             ByteWriter& out) {
  std::vector<std::unique_ptr<vm::Object>> batch;
  batch.reserve(count);
  std::int64_t bytes = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const ObjectHeader h = read_object_header(sr);
    auto obj = std::make_unique<vm::Object>();
    obj->id = h.id;
    obj->cls = h.cls;
    obj->kind = h.kind;
    obj->fields.assign(h.field_count, vm::Value{});
    obj->ints.assign(static_cast<std::size_t>(h.ints_len), 0);
    obj->chars.assign(static_cast<std::size_t>(h.chars_len), '\0');
    bytes += obj->size_bytes();
    batch.push_back(std::move(obj));
  }
  // All or nothing: room for the whole batch (after a GC if need be) or an
  // out_of_memory refusal before anything is adopted. With the room
  // reserved no adoption can trigger a GC, so the adoptees need no pins
  // while nothing local references them yet.
  vm_.reserve(bytes);
  std::vector<vm::Object*> adopted;
  adopted.reserve(count);
  for (auto& obj : batch) {
    refs_.forget_import(obj->id);
    adopted.push_back(obj.get());
    vm_.migrate_in(std::move(obj));
  }
  for (vm::Object* obj : adopted) {
    const std::int64_t before = obj->size_bytes();
    read_object_payload(sr, *obj, *this);
    // String fields arrive in the payload; account their bytes.
    vm_.heap().resync_used(*obj, before);
  }
  out.write_u32(count);
  for (vm::Object* obj : adopted) {
    out.write_u64(refs_.export_object(obj->id).value());
  }
}

// --- disconnected-operation reconcile ----------------------------------------
//
// Redo-log values travel self-described instead of via export handles:
// during a partition both heaps hold the same object ids (the hoarded
// replicas were byte copies and disconnected-era allocations exist only on
// the client), so raw ids are unambiguous and the RefMaps — cleared at
// disconnect — are not needed.

namespace {
constexpr std::uint8_t kRedoNil = 0;
constexpr std::uint8_t kRedoBool = 1;
constexpr std::uint8_t kRedoInt = 2;
constexpr std::uint8_t kRedoReal = 3;
constexpr std::uint8_t kRedoStr = 4;
constexpr std::uint8_t kRedoRef = 5;
}  // namespace

void Endpoint::write_redo_value(ByteWriter& w, const vm::Value& v,
                                const vm::DisconnectLog& log) {
  if (v.is_nil()) {
    w.write_u8(kRedoNil);
  } else if (v.is_bool()) {
    w.write_u8(kRedoBool);
    w.write_u8(v.as_bool() ? 1 : 0);
  } else if (v.is_int()) {
    w.write_u8(kRedoInt);
    w.write_i64(v.as_int());
  } else if (v.is_real()) {
    w.write_u8(kRedoReal);
    w.write_f64(v.as_real());
  } else if (v.is_str()) {
    w.write_u8(kRedoStr);
    w.write_string(v.as_str());
  } else {
    const vm::ObjectRef ref = v.as_ref();
    w.write_u8(kRedoRef);
    w.write_u64(ref.id.value());
    if (ref.is_null()) {
      w.write_u64(ExportHandle::invalid().value());
      w.write_u32(ClassId::invalid().value());
      w.write_u8(static_cast<std::uint8_t>(vm::ObjectKind::plain));
      return;
    }
    // A ref the surrogate is about to hold must keep resolving after we
    // resume: export it (which also GC-roots it here) unless it names a
    // hoarded replica — the surrogate owns that original already — or a
    // stub of some other surrogate object that escaped the hoard. The
    // handle travels so the peer's stub joins the distributed GC: when the
    // surrogate drops the stub, the release names our export and the
    // object becomes collectible again.
    const vm::Object* obj = vm_.find_object(ref.id);
    ExportHandle h = ExportHandle::invalid();
    if (obj != nullptr && !log.watches(ref.id)) {
      h = refs_.export_object(ref.id);
    }
    w.write_u64(h.value());
    w.write_u32(vm_.class_of(ref.id).value());
    w.write_u8(static_cast<std::uint8_t>(
        obj != nullptr ? obj->kind : vm::ObjectKind::plain));
  }
}

vm::Value Endpoint::read_redo_value(ByteReader& r) {
  switch (r.read_u8()) {
    case kRedoNil: return vm::Value{};
    case kRedoBool: return vm::Value{r.read_u8() != 0};
    case kRedoInt: return vm::Value{r.read_i64()};
    case kRedoReal: return vm::Value{r.read_f64()};
    case kRedoStr: return vm::Value{r.read_string()};
    case kRedoRef: {
      const ObjectId id{r.read_u64()};
      const ExportHandle h{r.read_u64()};
      const ClassId cls{r.read_u32()};
      const auto kind = static_cast<vm::ObjectKind>(r.read_u8());
      if (!id.valid()) return vm::Value{vm::ObjectRef{}};
      // Resolve local-first: a replica's id names our own original. Anything
      // unknown was born on the disconnected client — hold a stub, and
      // remember the initiator's export handle so our eventual stub sweep
      // releases its root.
      if (!vm_.knows(id)) vm_.install_stub(id, cls, kind);
      if (h.valid() && !vm_.is_local(id)) refs_.note_import(h, id);
      return vm::Value{vm::ObjectRef{id}};
    }
    default:
      throw VmError(VmErrorCode::type_mismatch, "bad redo value tag");
  }
}

void Endpoint::write_redo_entry(ByteWriter& w, const vm::RedoEntry& e,
                                const vm::DisconnectLog& log) {
  w.write_u8(static_cast<std::uint8_t>(e.kind));
  w.write_u64(e.obj.value());
  w.write_u64(e.key);
  switch (e.kind) {
    case vm::RedoEntry::Kind::field:
      write_redo_value(w, e.value, log);
      break;
    case vm::RedoEntry::Kind::array_elem: w.write_i64(e.elem); break;
    case vm::RedoEntry::Kind::chars: w.write_string(e.data); break;
  }
}

bool Endpoint::reconcile_log(const vm::DisconnectLog& log) {
  if (peer_ == nullptr) {
    throw VmError(VmErrorCode::null_reference, "endpoint not connected");
  }
  const auto entries = log.replay_order();
  ByteWriter prepare;
  prepare.write_u8(static_cast<std::uint8_t>(Op::reconcile_prepare));
  prepare.write_u32(static_cast<std::uint32_t>(entries.size()));
  for (const vm::RedoEntry* e : entries) write_redo_entry(prepare, *e, log);

  try {
    (void)two_phase(std::move(prepare), Op::reconcile_commit, entries.size(),
                    reconciles_);
  } catch (const PeerUnavailable&) {
    // Applied but unacked: the mutations landed exactly once and the caller
    // must clear its log. Otherwise the peer's heap is untouched and the
    // caller keeps its log, so a later attempt replays the same mutations.
    if (!reconciles_.back().applied_on_peer) throw;
  }
  stats_.reconciles_completed += 1;
  stats_.reconcile_replayed_ops += entries.size();
  return true;
}

void Endpoint::replay_redo(ByteReader& sr, std::uint32_t count) {
  // Batch-atomic replay: one journal scope covers every entry, so a decode
  // or apply error unwinds the whole log and the initiator can retry it as a
  // unit. Entries arrive in last-write order and every target is one of our
  // own originals (the client only watched hoarded replicas), applied
  // through the same raw mutators incoming RPCs use.
  const std::size_t mark = vm_.journal_begin();
  try {
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto kind = static_cast<vm::RedoEntry::Kind>(sr.read_u8());
      const ObjectId obj{sr.read_u64()};
      const std::uint64_t key = sr.read_u64();
      switch (kind) {
        case vm::RedoEntry::Kind::field:
          vm_.raw_put_field(obj, FieldId{static_cast<std::uint32_t>(key)},
                            read_redo_value(sr));
          break;
        case vm::RedoEntry::Kind::array_elem:
          vm_.raw_array_put(obj, static_cast<std::int64_t>(key),
                            vm::Value{sr.read_i64()});
          break;
        case vm::RedoEntry::Kind::chars:
          vm_.raw_chars_write(obj, static_cast<std::int64_t>(key),
                              sr.read_string());
          break;
        default:
          throw VmError(VmErrorCode::type_mismatch, "bad redo entry kind");
      }
    }
  } catch (...) {
    vm_.journal_rollback(mark);
    throw;
  }
  vm_.journal_commit();
}

// --- serving ---------------------------------------------------------------------

SharedFrame Endpoint::receive_frame(const SharedFrame& wire) {
  // An incoming frame means the peer is acting: whatever we read ahead of
  // time may be about to change (and anything we cache while serving goes
  // stale the moment the requester resumes — hence the clear on both ends).
  invalidate_snapshots();
  const auto view = parse_frame(*wire);
  if (!view.has_value()) {
    stats_.corrupt_frames_rejected += 1;
    return nullptr;
  }
  if (view->epoch < epoch_) {
    // A frame from before the current migration epoch: whatever it asks for
    // refers to a placement that no longer exists. Fence it.
    stats_.stale_frames_fenced += 1;
    return nullptr;
  }
  epoch_ = view->epoch;  // adopt the sender's newer fencing token
  if (last_served_seq_ != 0 && view->seq <= last_served_seq_) {
    if (fault_tolerant() && cached_response_ != nullptr &&
        view->seq == last_served_seq_) {
      // A retry of the request we just served: at-most-once execution
      // demands we replay the reply, not the side effects. The cached frame
      // already carries this (epoch, seq) unless the cache predates the
      // last serve; only then is its payload sealed afresh.
      stats_.duplicates_served += 1;
      const auto cached = parse_frame(*cached_response_);
      if (cached.has_value() && cached->epoch == epoch_ &&
          cached->seq == view->seq) {
        return cached_response_;
      }
      return seal_frame(epoch_, view->seq, cached_response_->payload);
    }
    stats_.stale_frames_fenced += 1;
    return nullptr;
  }

  serving_depth_ += 1;
  std::vector<std::uint8_t> resp;
  try {
    resp = serve(view->payload, wire);
  } catch (...) {
    serving_depth_ -= 1;
    throw;
  }
  serving_depth_ -= 1;
  invalidate_snapshots();
  last_served_seq_ = view->seq;
  last_contact_ = vm_.clock().now();
  // One sealed reply serves as the wire frame, the reorder injector's
  // retransmit copy and (under a fault plan) the reply cache.
  last_resp_frame_ = seal_frame(epoch_, view->seq, std::move(resp));
  if (fault_tolerant()) cached_response_ = last_resp_frame_;
  return last_resp_frame_;
}

std::vector<std::uint8_t> Endpoint::serve(
    std::span<const std::uint8_t> request, const SharedFrame& carrier) {
  if (!request.empty() && static_cast<Op>(request[0]) == Op::batch) {
    return serve_batch(request, carrier);
  }
  stats_.rpcs_served += 1;
  return serve_one(request, carrier);
}

std::vector<std::uint8_t> Endpoint::serve_batch(
    std::span<const std::uint8_t> request, const SharedFrame& carrier) {
  ByteWriter out;
  try {
    ByteReader r(request);
    (void)r.read_u8();  // Op::batch
    const auto count = r.read_u32();
    std::vector<std::span<const std::uint8_t>> ops;
    ops.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ops.push_back(read_op_section(r));
    }
    // Batch-atomic execution: all sub-ops run inside one journal scope, so
    // an abandoned nested call unwinds every one of them — a retried batch
    // re-executes from clean state, never on top of a partial application.
    // A sub-op's *semantic* error commits (the fault-free per-op contract)
    // but stops the batch: ops after it never ran and never will.
    const std::size_t mark = vm_.journal_begin();
    const std::size_t pmark = pending_.size();
    std::vector<std::vector<std::uint8_t>> replies;
    replies.reserve(count);
    try {
      for (const auto op : ops) {
        stats_.rpcs_served += 1;
        auto reply = serve_one(op, carrier);
        const bool failed = !reply.empty() && reply[0] == kStatusVmError;
        replies.push_back(std::move(reply));
        if (failed) break;
      }
    } catch (const PeerUnavailable&) {
      vm_.journal_rollback(mark);
      if (pending_.size() > pmark) pending_.resize(pmark);
      throw;
    }
    vm_.journal_commit();
    out.write_u8(kStatusOk);
    out.write_u32(static_cast<std::uint32_t>(replies.size()));
    for (const auto& reply : replies) write_op_section(out, reply);
  } catch (const VmError& e) {
    // A malformed batch envelope; no sub-op executed.
    return error_reply(e);
  }
  return std::move(out).take();
}

std::vector<std::uint8_t> Endpoint::serve_one(
    std::span<const std::uint8_t> request, const SharedFrame& carrier) {
  ByteWriter out;
  try {
    ByteReader r(request);
    const auto op = static_cast<Op>(r.read_u8());
    switch (op) {
      case Op::invoke:
      case Op::invoke_static: {
        const ObjectId target =
            op == Op::invoke ? resolve_target(r) : ObjectId{};
        const ClassId cls{r.read_u32()};
        const MethodId method{r.read_u32()};
        const auto argc = r.read_u32();
        std::vector<vm::Value> args;
        args.reserve(argc);
        for (std::uint32_t i = 0; i < argc; ++i) {
          args.push_back(read_value(r, *this));
        }
        // Journal the frame: if a nested call back to the peer is abandoned
        // mid-execution, the partial mutations are rolled back so a local
        // re-execution starts from clean state. Semantic errors (VmError)
        // commit — partial effects are the fault-free contract.
        const std::size_t mark = vm_.journal_begin();
        const std::size_t pmark = pending_.size();
        vm::Value ret;
        try {
          ret = run_invoke(op, target, cls, method, args);
          // The requester resumes when this reply lands and may then read
          // its own state directly: any write-behind ops this invocation
          // queued against it must land first, inside the same rollback
          // scope — the flush is part of executing the invoke.
          send_queue();
        } catch (const PeerUnavailable&) {
          vm_.journal_rollback(mark);
          // Deferred writes of the rolled-back execution die with it.
          if (pending_.size() > pmark) pending_.resize(pmark);
          throw;
        } catch (...) {
          vm_.journal_commit();
          throw;
        }
        vm_.journal_commit();
        out.write_u8(kStatusOk);
        write_value(out, ret, *this);
        break;
      }
      case Op::get_field: {
        const ObjectId target = resolve_target(r);
        const FieldId field{r.read_u32()};
        out.write_u8(kStatusOk);
        write_value(out, vm_.raw_get_field(target, field), *this);
        break;
      }
      case Op::put_field: {
        const ObjectId target = resolve_target(r);
        const FieldId field{r.read_u32()};
        vm_.raw_put_field(target, field, read_value(r, *this));
        out.write_u8(kStatusOk);
        break;
      }
      case Op::get_static: {
        const ClassId cls{r.read_u32()};
        const auto slot = r.read_u32();
        out.write_u8(kStatusOk);
        write_value(out, vm_.raw_get_static(cls, slot), *this);
        break;
      }
      case Op::put_static: {
        const ClassId cls{r.read_u32()};
        const auto slot = r.read_u32();
        vm_.raw_put_static(cls, slot, read_value(r, *this));
        out.write_u8(kStatusOk);
        break;
      }
      case Op::array_get: {
        const ObjectId target = resolve_target(r);
        const std::int64_t index = r.read_i64();
        out.write_u8(kStatusOk);
        write_value(out, vm_.raw_array_get(target, index), *this);
        break;
      }
      case Op::array_put: {
        const ObjectId target = resolve_target(r);
        const std::int64_t index = r.read_i64();
        vm_.raw_array_put(target, index, read_value(r, *this));
        out.write_u8(kStatusOk);
        break;
      }
      case Op::array_len: {
        const ObjectId target = resolve_target(r);
        out.write_u8(kStatusOk);
        out.write_i64(vm_.raw_array_length(target));
        break;
      }
      case Op::chars_read: {
        const ObjectId target = resolve_target(r);
        const std::int64_t offset = r.read_i64();
        const std::int64_t length = r.read_i64();
        out.write_u8(kStatusOk);
        out.write_string(vm_.raw_chars_read(target, offset, length));
        break;
      }
      case Op::chars_write: {
        const ObjectId target = resolve_target(r);
        const std::int64_t offset = r.read_i64();
        const std::string data = r.read_string();
        vm_.raw_chars_write(target, offset, data);
        out.write_u8(kStatusOk);
        break;
      }
      case Op::release: {
        const auto count = r.read_u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          refs_.release_export_handle(ExportHandle{r.read_u64()});
        }
        out.write_u8(kStatusOk);
        break;
      }
      case Op::migrate_prepare:
      case Op::reconcile_prepare: {
        // Stage the encoded batch or redo log verbatim without touching the
        // heap: applying it is deferred to COMMIT, so an abort at any message
        // boundary of the transfer leaves this VM exactly as it was. A
        // higher-epoch PREPARE supersedes stale staging from an aborted
        // earlier transfer; disconnect drops it entirely. Staging keeps the
        // carrying frame alive rather than copying the bytes out of it.
        staged_ = Staged{carrier, request.subspan(1), epoch_,
                         op == Op::migrate_prepare ? Op::migrate_commit
                                                   : Op::reconcile_commit};
        out.write_u8(kStatusOk);
        break;
      }
      case Op::migrate_commit:
      case Op::reconcile_commit: {
        const bool migrate = op == Op::migrate_commit;
        const auto expected = r.read_u32();
        if (!staged_.has_value() || staged_->epoch != epoch_ ||
            staged_->commit != op) {
          throw VmError(VmErrorCode::type_mismatch,
                        migrate ? "migrate commit without a staged batch"
                                : "reconcile commit without a staged log");
        }
        const Staged staged = *std::exchange(staged_, std::nullopt);
        ByteReader sr(staged.bytes);
        if (sr.read_u32() != expected) {
          throw VmError(VmErrorCode::type_mismatch,
                        migrate ? "migrate commit count mismatch"
                                : "reconcile commit count mismatch");
        }
        out.write_u8(kStatusOk);
        if (migrate) {
          adopt_objects(sr, expected, out);
        } else {
          replay_redo(sr, expected);
        }
        // Recorded only once the transfer fully applied: the initiator's
        // proof that this COMMIT ran when its ack is lost.
        last_committed_epoch_ = epoch_;
        break;
      }
      case Op::ping: {
        // Heartbeat probe: prove liveness, touch nothing.
        out.write_u8(kStatusOk);
        break;
      }
      case Op::get_object: {
        // Read-ahead: snapshot whole plain objects (the demanded target
        // first, then prefetch candidates). Resolution is lenient — a
        // candidate that was collected, migrated away, or is not a plain
        // object is reported absent, not an error; the sender falls back to
        // the per-op path for the demanded target if it needs to.
        const auto count = r.read_u32();
        out.write_u8(kStatusOk);
        out.write_u32(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          const WireRef wire = read_wire_ref(r);
          out.write_u64(wire.id.value());
          vm::Object* obj = nullptr;
          try {
            const vm::ObjectRef ref = translate_in(wire);
            obj = vm_.find_object(ref.id);
          } catch (const VmError&) {
            obj = nullptr;
          }
          if (obj == nullptr || obj->kind != vm::ObjectKind::plain) {
            out.write_u8(0);
            continue;
          }
          out.write_u8(1);
          out.write_u32(static_cast<std::uint32_t>(obj->fields.size()));
          for (const vm::Value& v : obj->fields) write_value(out, v, *this);
        }
        break;
      }
      default:
        throw VmError(VmErrorCode::type_mismatch, "unknown rpc opcode");
    }
  } catch (const VmError& e) {
    return error_reply(e);
  }
  return std::move(out).take();
}

}  // namespace aide::rpc
