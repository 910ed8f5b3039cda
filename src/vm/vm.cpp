#include "vm/vm.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace aide::vm {

Vm::Vm(VmConfig cfg, std::shared_ptr<const ClassRegistry> registry,
       SimClock& clock)
    : cfg_(std::move(cfg)),
      registry_(std::move(registry)),
      clock_(clock),
      heap_(cfg_.heap_capacity) {}

void Vm::add_hooks(monitor::ExecutionMonitor* monitor) {
  if (monitor_ == nullptr) {
    monitor_ = monitor;
  } else {
    add_hooks(static_cast<VmHooks*>(monitor));
  }
}

void Vm::add_hooks(VmHooks* hooks, EventMask events) {
  if (hooks == nullptr) return;
  for (std::size_t k = 0; k < kEventKinds; ++k) {
    if ((events & (1u << k)) != 0) observers_[k].push_back(hooks);
  }
  observed_ |= events & kAllEvents;
}

void Vm::remove_hooks(VmHooks* hooks) {
  if (monitor_ != nullptr && static_cast<VmHooks*>(monitor_) == hooks) {
    monitor_ = nullptr;
  }
  observed_ = 0;
  for (std::size_t k = 0; k < kEventKinds; ++k) {
    std::erase(observers_[k], hooks);
    if (!observers_[k].empty()) observed_ |= static_cast<EventMask>(1u << k);
  }
}

// --- allocation -------------------------------------------------------------

ObjectRef Vm::new_object(ClassId cls) {
  const ClassDef& def = registry_->get(cls);
  return allocate(cls, ObjectKind::plain,
                  static_cast<std::int64_t>(def.fields.size()), 0, {});
}

ObjectRef Vm::new_int_array(std::int64_t length) {
  return allocate(registry_->int_array_class(), ObjectKind::int_array, length,
                  0, {});
}

ObjectRef Vm::new_ref_array(std::int64_t length) {
  return allocate(registry_->object_array_class(), ObjectKind::plain, length,
                  0, {});
}

ObjectRef Vm::new_char_array(std::int64_t length) {
  return allocate(registry_->char_array_class(), ObjectKind::char_array, 0,
                  length, {});
}

ObjectRef Vm::new_char_array(std::string_view initial) {
  return allocate(registry_->char_array_class(), ObjectKind::char_array, 0,
                  static_cast<std::int64_t>(initial.size()), initial);
}

ObjectRef Vm::allocate(ClassId cls, ObjectKind kind, std::int64_t ints_len,
                       std::int64_t chars_len, std::string_view chars_init) {
  constexpr std::int64_t header = 16;
  std::int64_t size = header;
  switch (kind) {
    case ObjectKind::plain: size += ints_len * 8; break;      // field slots
    case ObjectKind::int_array: size += ints_len * 8; break;
    case ObjectKind::char_array: size += chars_len; break;
  }

  maybe_gc_after_alloc(size);
  reserve(size);

  const ObjectId id = next_object_id();
  Object& obj = heap_.create(
      id, cls, kind,
      kind == ObjectKind::plain ? static_cast<std::size_t>(ints_len) : 0,
      kind == ObjectKind::int_array ? static_cast<std::size_t>(ints_len) : 0,
      static_cast<std::size_t>(chars_len), size);
  if (kind == ObjectKind::char_array && !chars_init.empty()) {
    obj.chars.assign(chars_init);
  }

  stats_.allocations += 1;
  stats_.alloc_bytes += static_cast<std::uint64_t>(size);
  allocs_since_gc_ += 1;
  alloc_bytes_since_gc_ += size;

  emit(kHeapEvents,
       [&](auto& h) { h.on_alloc(cfg_.node, id, cls, size, clock_.now()); });

  const ObjectRef ref{id};
  root_in_frame(ref);
  return ref;
}

void Vm::maybe_gc_after_alloc(std::int64_t upcoming_bytes) {
  if (in_gc_) return;
  const bool by_count = allocs_since_gc_ >= cfg_.gc_alloc_count_threshold;
  const bool by_bytes =
      cfg_.gc_alloc_bytes_divisor > 0 &&
      alloc_bytes_since_gc_ >= heap_.capacity() / cfg_.gc_alloc_bytes_divisor;
  const bool by_space = !heap_.fits(upcoming_bytes);
  if (by_count || by_bytes || by_space) collect_garbage();
}

void Vm::reserve(std::int64_t bytes) {
  if (heap_.fits(bytes)) return;
  if (!in_gc_) collect_garbage();
  if (heap_.fits(bytes)) return;
  if (low_memory_handler_ && !in_gc_) {
    // Last-resort rescue: the platform may offload components to free heap
    // (the paper's JavaNote experiment: the application would otherwise fail
    // with an out-of-memory error).
    if (low_memory_handler_(*this)) {
      collect_garbage();
      if (heap_.fits(bytes)) {
        stats_.low_memory_rescues += 1;
        return;
      }
    }
  }
  throw VmError(VmErrorCode::out_of_memory,
                cfg_.name + ": need " + std::to_string(bytes) + "B, " +
                    std::to_string(heap_.free_bytes()) + "B free");
}

// --- garbage collection -------------------------------------------------------

void Vm::mark_value(const Value& v, std::vector<ObjectId>& worklist) const {
  if (v.is_ref() && !v.as_ref().is_null()) worklist.push_back(v.as_ref().id);
}

GcReport Vm::collect_garbage() {
  // Yield point: drain the transport's write-behind queue before marking.
  // Deferred remote stores pin exported values, and the distributed-GC
  // release pass below must see the post-flush reference state.
  if (peer_ != nullptr) peer_->flush_pending();
  in_gc_ = true;
  const std::int64_t used_before = heap_.used();

  // Mark.
  std::vector<ObjectId> worklist;
  for (std::size_t i = 0; i < frame_depth_; ++i) {
    const Frame& f = frames_[i];
    if (f.self.valid()) worklist.push_back(f.self);
    worklist.insert(worklist.end(), f.local_roots.begin(),
                    f.local_roots.end());
  }
  for (const auto& [id, count] : external_roots_) {
    if (count > 0) worklist.push_back(id);
  }
  worklist.insert(worklist.end(), driver_roots_.begin(), driver_roots_.end());
  for (const Value& v : statics_) mark_value(v, worklist);
  // Journaled old values must survive until their scope resolves: a rollback
  // would write them back. Empty unless a fault plan is active.
  for (const JournalEntry& e : journal_) mark_value(e.old_value, worklist);
  // Redo-log values are roots for the same reason: they are promised to the
  // peer at the next reconcile and must not be collected out from under the
  // replay. Empty unless a disconnected epoch is in progress.
  if (redo_log_ != nullptr) {
    redo_log_->for_each_live_value(
        [&](const Value& v) { mark_value(v, worklist); });
  }
  if (extra_roots_provider_) {
    extra_roots_provider_([&](ObjectId id) { worklist.push_back(id); });
  }

  while (!worklist.empty()) {
    const ObjectId id = worklist.back();
    worklist.pop_back();
    if (Object* obj = heap_.find(id); obj != nullptr) {
      if (obj->gc_mark) continue;
      obj->gc_mark = true;
      for (const Value& v : obj->fields) mark_value(v, worklist);
    } else if (auto it = stubs_.find(id); it != stubs_.end()) {
      it->second.gc_mark = true;
    }
  }

  // Sweep local objects.
  const SimTime t = clock_.now();
  const std::int64_t freed = heap_.sweep([&](const Object& obj) {
    stats_.frees += 1;
    emit(kHeapEvents, [&](auto& h) {
      h.on_free(cfg_.node, obj.id, obj.cls, obj.size_bytes(), t);
    });
  });

  // Sweep unreachable stubs and notify the distributed GC.
  std::vector<ObjectId> released;
  for (auto it = stubs_.begin(); it != stubs_.end();) {
    if (!it->second.gc_mark) {
      released.push_back(it->first);
      it = stubs_.erase(it);
    } else {
      it->second.gc_mark = false;
      ++it;
    }
  }
  if (!released.empty() && stub_release_handler_) {
    stub_release_handler_(released);
  }

  // Charge the simulated cost of the collection cycle.
  work(cfg_.gc_cost_per_live_object *
       static_cast<SimDuration>(heap_.object_count()));

  GcReport report;
  report.cycle = ++gc_cycle_;
  report.used_before = used_before;
  report.used_after = heap_.used();
  report.capacity = heap_.capacity();
  report.freed = freed;
  report.live_objects = static_cast<std::int64_t>(heap_.object_count());

  stats_.gc_cycles += 1;
  allocs_since_gc_ = 0;
  alloc_bytes_since_gc_ = 0;
  in_gc_ = false;

  emit(kGcEvents, [&](auto& h) { h.on_gc(cfg_.node, report); });
  return report;
}

// --- mutation journal --------------------------------------------------------

std::size_t Vm::journal_begin() noexcept {
  if (!journal_enabled_) return 0;
  journal_depth_ += 1;
  return journal_.size();
}

void Vm::journal_commit() noexcept {
  if (journal_depth_ == 0) return;
  journal_depth_ -= 1;
  if (journal_depth_ == 0) journal_.clear();
}

void Vm::journal_rollback(std::size_t mark) {
  journal_replaying_ = true;
  while (journal_.size() > mark) {
    const JournalEntry e = std::move(journal_.back());
    journal_.pop_back();
    switch (e.kind) {
      case JournalEntry::Kind::field:
        if (heap_.contains(e.obj)) {
          raw_put_field(e.obj, FieldId{static_cast<std::uint32_t>(e.key)},
                        e.old_value);
        }
        break;
      case JournalEntry::Kind::static_slot:
        if (e.key >= statics_.size()) statics_.resize(e.key + 1);
        statics_[e.key] = e.old_value;
        break;
      case JournalEntry::Kind::array_elem:
        if (heap_.contains(e.obj)) {
          raw_array_put(e.obj, static_cast<std::int64_t>(e.key),
                        Value{e.old_elem});
        }
        break;
      case JournalEntry::Kind::chars:
        if (heap_.contains(e.obj)) {
          raw_chars_write(e.obj, static_cast<std::int64_t>(e.key),
                          e.old_chars);
        }
        break;
    }
  }
  journal_replaying_ = false;
  if (journal_depth_ > 0) journal_depth_ -= 1;
  if (journal_depth_ == 0) journal_.clear();
}

// --- roots -------------------------------------------------------------------

void Vm::add_root(ObjectRef obj) {
  if (!obj.is_null()) external_roots_[obj.id] += 1;
}

void Vm::remove_root(ObjectRef obj) {
  if (obj.is_null()) return;
  const auto it = external_roots_.find(obj.id);
  if (it != external_roots_.end() && --it->second <= 0) {
    external_roots_.erase(it);
  }
}

void Vm::root_in_frame(const Value& v) {
  if (v.is_ref()) root_in_frame(v.as_ref());
}

void Vm::root_in_frame(ObjectRef r) {
  if (r.is_null()) return;
  if (frame_depth_ > 0) {
    frames_[frame_depth_ - 1].local_roots.push_back(r.id);
  } else {
    // Driver-level code holds references in C++ locals the collector cannot
    // see; pin them until the driver releases its roots.
    driver_roots_.push_back(r.id);
  }
}

// --- lookup helpers ----------------------------------------------------------

Object& Vm::require_local(ObjectId id) {
  Object* obj = heap_.find(id);
  if (obj == nullptr) {
    throw VmError(VmErrorCode::null_reference,
                  cfg_.name + ": object " + std::to_string(id.value()) +
                      " is not local");
  }
  return *obj;
}

ClassId Vm::class_of(ObjectId id) const {
  if (const Object* obj = heap_.find(id); obj != nullptr) return obj->cls;
  if (const auto it = stubs_.find(id); it != stubs_.end()) {
    return it->second.cls;
  }
  throw VmError(VmErrorCode::null_reference,
                cfg_.name + ": unknown object " + std::to_string(id.value()));
}

const MethodDef& Vm::method_def(ClassId cls, MethodId m) const {
  const ClassDef& def = registry_->get(cls);
  if (!m.valid() || m.value() >= def.methods.size()) {
    throw VmError(VmErrorCode::unknown_method,
                  def.name + " method #" + std::to_string(m.value()));
  }
  return def.methods[m.value()];
}

// --- invocation ----------------------------------------------------------------

Value Vm::call(ObjectRef obj, std::string_view method,
               std::initializer_list<Value> args) {
  const ClassId cls = class_of(obj.id);
  const MethodId m = registry_->get(cls).find_method(method);
  if (!m.valid()) {
    throw VmError(VmErrorCode::unknown_method,
                  registry_->get(cls).name + "." + std::string(method));
  }
  return invoke(obj, m, std::span<const Value>(args.begin(), args.size()));
}

Value Vm::call_static(std::string_view cls, std::string_view method,
                      std::initializer_list<Value> args) {
  const ClassId cid = registry_->find(cls);
  const MethodId m = registry_->get(cid).find_method(method);
  if (!m.valid()) {
    throw VmError(VmErrorCode::unknown_method,
                  std::string(cls) + "." + std::string(method));
  }
  return invoke_static(cid, m,
                       std::span<const Value>(args.begin(), args.size()));
}

Value Vm::call_site_slow(ObjectRef obj, const CallSite& site,
                         std::span<const Value> args) {
  if (obj.is_null()) {
    throw VmError(VmErrorCode::null_reference, "invoke on null");
  }
  // One heap probe resolves both the receiver class and its locality.
  Object* o = heap_.find(obj.id);
  const ClassId cls = o != nullptr ? o->cls : class_of(obj.id);
  if (site.epoch_ != registry_->epoch() || site.cls_ != cls) {
    // Miss: first use, a different receiver class, or a different/expanded
    // registry since the last resolution.
    const MethodId m = registry_->get(cls).find_method(site.method_);
    if (!m.valid()) {
      throw VmError(VmErrorCode::unknown_method,
                    registry_->get(cls).name + "." +
                        std::string(site.method_));
    }
    site.cls_ = cls;
    site.mid_ = m;
    site.epoch_ = registry_->epoch();
    const MethodDef& mdef = registry_->get(cls).methods[m.value()];
    site.fast_ok_ =
        (mdef.kind == MethodKind::managed && !mdef.is_static && mdef.body);
    site.mdef_ = site.fast_ok_ ? &mdef : nullptr;
  }
  return dispatch_invoke(obj, cls, site.mid_, args,
                         /*is_static=*/false,
                         o != nullptr ? Locality::local : Locality::unknown);
}

Value Vm::call_static(const StaticCallSite& site,
                      std::initializer_list<Value> args) {
  if (site.epoch_ != registry_->epoch()) {
    const ClassId cid = registry_->find(site.cls_name_);
    const MethodId m = registry_->get(cid).find_method(site.method_);
    if (!m.valid()) {
      throw VmError(VmErrorCode::unknown_method,
                    std::string(site.cls_name_) + "." +
                        std::string(site.method_));
    }
    site.cls_ = cid;
    site.mid_ = m;
    site.epoch_ = registry_->epoch();
  }
  return dispatch_invoke(kNullRef, site.cls_, site.mid_,
                         std::span<const Value>(args.begin(), args.size()),
                         /*is_static=*/true);
}

Value Vm::invoke(ObjectRef obj, MethodId method, std::span<const Value> args) {
  if (obj.is_null()) {
    throw VmError(VmErrorCode::null_reference, "invoke on null");
  }
  Object* o = heap_.find(obj.id);
  const ClassId cls = o != nullptr ? o->cls : class_of(obj.id);
  return dispatch_invoke(obj, cls, method, args, /*is_static=*/false,
                         o != nullptr ? Locality::local : Locality::unknown);
}

Value Vm::invoke_static(ClassId cls, MethodId method,
                        std::span<const Value> args) {
  return dispatch_invoke(kNullRef, cls, method, args, /*is_static=*/true);
}

Value Vm::dispatch_invoke(ObjectRef target, ClassId cls, MethodId mid,
                          std::span<const Value> args, bool is_static,
                          Locality locality) {
  const MethodDef& m = method_def(cls, mid);
  if (m.is_static != is_static) {
    throw VmError(VmErrorCode::unknown_method,
                  registry_->get(cls).name + "." + m.name +
                      ": static/instance mismatch");
  }

  // Execution-site rules (paper 3.2):
  //  * native methods execute on the client, unless stateless and the
  //    stateless-native enhancement is enabled;
  //  * static managed methods execute on the invoking VM;
  //  * instance managed methods follow the placement of the target object.
  const bool known_local = locality == Locality::local;
  bool run_here;
  if (m.kind == MethodKind::native) {
    if (m.stateless && cfg_.stateless_natives_local) {
      run_here = is_static || known_local || is_local(target.id);
    } else {
      run_here = cfg_.is_client;
    }
    if (run_here && !is_static && !(known_local || is_local(target.id))) {
      run_here = false;
    }
  } else if (is_static) {
    run_here = true;
  } else {
    run_here = known_local || is_local(target.id);
  }

  // Event assembly (timestamps, wire-size sums) only pays off when someone
  // is listening; skipping it when nobody hears invocations is unobservable.
  const bool traced = watched(kInvokeEvents);
  const SimTime t0 = traced ? clock_.now() : 0;
  const std::uint64_t arg_bytes = traced ? args_wire_size(args) : 0;

  Value ret;
  if (run_here) {
    ret = execute_local(target, cls, mid, m, args);
  } else {
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference,
                    cfg_.name + ": remote invoke with no peer attached");
    }
    stats_.remote_invocations += 1;
    ret = is_static ? peer_->invoke_static(cls, mid, args)
                    : peer_->invoke(target.id, cls, mid, args);
    root_in_frame(ret);
  }

  stats_.invocations += 1;
  if (traced) {
    const InvokeEvent ev =
        invoke_event(cls, target.id, mid, m, is_static, !run_here,
                     arg_bytes + ret.wire_size(), t0);
    emit(kInvokeEvents, [&](auto& h) { h.on_invoke(ev); });
  }

  return ret;
}

Value Vm::execute_local(ObjectRef self, ClassId cls, MethodId mid,
                        const MethodDef& m, std::span<const Value> args) {
  if (frame_depth_ >= kMaxStackDepth) {
    throw VmError(VmErrorCode::stack_overflow, registry_->get(cls).name);
  }
  if (!m.body) {
    throw VmError(VmErrorCode::native_not_registered,
                  registry_->get(cls).name + "." + m.name);
  }

  // Reuse a pooled frame: past max depth the pool stops growing, and each
  // retired frame keeps its local_roots capacity.
  if (frame_depth_ == frames_.size()) frames_.emplace_back();
  const std::size_t frame_ix = frame_depth_++;
  Frame& f = frames_[frame_ix];
  f.cls = cls;
  f.self = self.id;
  f.method = mid;
  f.start = clock_.now();
  f.child_time = 0;
  f.local_roots.clear();
  if (self.id.valid()) f.local_roots.push_back(self.id);
  for (const Value& a : args) {
    if (a.is_ref() && !a.as_ref().is_null()) {
      f.local_roots.push_back(a.as_ref().id);
    }
  }

  emit(kFrameEvents, [&](auto& h) {
    h.on_method_enter(cfg_.node, cls, self.id, mid, clock_.now());
  });

  work(m.base_cost);

  Value ret;
  try {
    ret = m.body(*this, self, args);
  } catch (...) {
    // Unwind bookkeeping, then let the error propagate (possibly across the
    // simulated RPC boundary, where the endpoint converts it).
    const SimDuration total = clock_.now() - frames_[frame_ix].start;
    --frame_depth_;
    if (frame_depth_ > 0) frames_[frame_depth_ - 1].child_time += total;
    throw;
  }

  const SimDuration total = clock_.now() - frames_[frame_ix].start;
  const SimDuration self_time = total - frames_[frame_ix].child_time;
  emit(kFrameEvents, [&](auto& h) {
    h.on_method_exit(cfg_.node, cls, self.id, mid, self_time, clock_.now());
  });

  --frame_depth_;
  if (frame_depth_ > 0) frames_[frame_depth_ - 1].child_time += total;
  root_in_frame(ret);
  return ret;
}

Value Vm::run_incoming_invoke(ObjectId target, MethodId method,
                              std::span<const Value> args) {
  const ClassId cls = class_of(target);
  return execute_local(ObjectRef{target}, cls, method, method_def(cls, method),
                       args);
}

Value Vm::run_incoming_invoke_static(ClassId cls, MethodId method,
                                     std::span<const Value> args) {
  return execute_local(kNullRef, cls, method, method_def(cls, method), args);
}

// --- field access --------------------------------------------------------------

Value Vm::get_field_slow(ObjectRef obj, FieldId field) {
  if (obj.is_null()) {
    throw VmError(VmErrorCode::null_reference, "get_field on null");
  }
  Value v;
  bool remote = false;
  ClassId tcls;
  if (Object* o = heap_.find(obj.id); o != nullptr) {
    tcls = o->cls;
    if (field.value() >= o->fields.size()) {
      throw VmError(VmErrorCode::unknown_field,
                    registry_->get(tcls).name + " field #" +
                        std::to_string(field.value()));
    }
    v = o->fields[field.value()];
  } else {
    tcls = class_of(obj.id);  // throws if unknown
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote field, no peer");
    }
    v = peer_->get_field(obj.id, field);
    remote = true;
    stats_.remote_field_accesses += 1;
  }

  stats_.field_accesses += 1;
  note_access(tcls, obj.id, v.wire_size(), /*is_write=*/false, remote);
  root_in_frame(v);
  return v;
}

Value Vm::get_field(ObjectRef obj, std::string_view field) {
  const ClassDef& def = registry_->get(class_of(obj.id));
  const FieldId f = def.find_field(field);
  if (!f.valid()) {
    throw VmError(VmErrorCode::unknown_field,
                  def.name + "." + std::string(field));
  }
  return get_field(obj, f);
}

void Vm::put_field_slow(ObjectRef obj, FieldId field, const Value& v) {
  if (obj.is_null()) {
    throw VmError(VmErrorCode::null_reference, "put_field on null");
  }
  bool remote = false;
  ClassId tcls;
  if (Object* o = heap_.find(obj.id); o != nullptr) {
    tcls = o->cls;
    put_field_local(*o, field, v);
  } else {
    tcls = class_of(obj.id);
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote field, no peer");
    }
    peer_->put_field(obj.id, field, v);
    remote = true;
    stats_.remote_field_accesses += 1;
  }

  stats_.field_accesses += 1;
  note_access(tcls, obj.id, v.wire_size(), /*is_write=*/true, remote);
}

void Vm::put_field(ObjectRef obj, std::string_view field, const Value& v) {
  const ClassDef& def = registry_->get(class_of(obj.id));
  const FieldId f = def.find_field(field);
  if (!f.valid()) {
    throw VmError(VmErrorCode::unknown_field,
                  def.name + "." + std::string(field));
  }
  put_field(obj, f, v);
}

Value Vm::raw_get_field(ObjectId target, FieldId field) {
  Object& o = require_local(target);
  if (field.value() >= o.fields.size()) {
    throw VmError(VmErrorCode::unknown_field,
                  "field #" + std::to_string(field.value()));
  }
  return o.fields[field.value()];
}

void Vm::raw_put_field(ObjectId target, FieldId field, const Value& v) {
  put_field_local(require_local(target), field, v);
}

void Vm::put_field_local(Object& o, FieldId field, const Value& v) {
  if (field.value() >= o.fields.size()) {
    throw VmError(VmErrorCode::unknown_field,
                  "field #" + std::to_string(field.value()));
  }
  if (journal_recording()) {
    journal_.push_back({JournalEntry::Kind::field, o.id, field.value(),
                        o.fields[field.value()], 0, {}});
  }
  // Only string payloads change an object's footprint; compute the delta
  // from the touched slot alone (size_bytes() would scan every field, which
  // is quadratic for large reference arrays).
  const Value& old = o.fields[field.value()];
  const std::int64_t delta =
      (v.is_str() ? static_cast<std::int64_t>(v.as_str().size()) : 0) -
      (old.is_str() ? static_cast<std::int64_t>(old.as_str().size()) : 0);
  o.fields[field.value()] = v;
  if (redo_log_ != nullptr) [[unlikely]] {
    redo_log_->record_field(o.id, field.value(), v);
  }
  if (delta != 0) {
    heap_.adjust_used(o, delta);
    emit(kHeapEvents,
         [&](auto& h) { h.on_resize(cfg_.node, o.id, o.cls, delta); });
  }
}

// --- statics ---------------------------------------------------------------------

Value Vm::get_static(ClassId cls, std::uint32_t slot) {
  Value v;
  bool remote = false;
  if (cfg_.is_client) {
    v = raw_get_static(cls, slot);
  } else {
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote static, no peer");
    }
    v = peer_->get_static(cls, slot);
    remote = true;
    stats_.remote_field_accesses += 1;
  }

  stats_.field_accesses += 1;
  note_access(cls, ObjectId::invalid(), v.wire_size(), /*is_write=*/false,
              remote);
  root_in_frame(v);
  return v;
}

Value Vm::get_static(std::string_view cls, std::string_view slot) {
  const ClassId cid = registry_->find(cls);
  return get_static(cid, registry_->get(cid).require_static(slot));
}

void Vm::put_static(ClassId cls, std::uint32_t slot, const Value& v) {
  bool remote = false;
  if (cfg_.is_client) {
    raw_put_static(cls, slot, v);
  } else {
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote static, no peer");
    }
    peer_->put_static(cls, slot, v);
    remote = true;
    stats_.remote_field_accesses += 1;
  }

  stats_.field_accesses += 1;
  note_access(cls, ObjectId::invalid(), v.wire_size(), /*is_write=*/true,
              remote);
}

void Vm::put_static(std::string_view cls, std::string_view slot,
                    const Value& v) {
  const ClassId cid = registry_->find(cls);
  put_static(cid, registry_->get(cid).require_static(slot), v);
}

Value Vm::raw_get_static(ClassId cls, std::uint32_t slot) {
  const std::uint64_t ix = static_index(cls, slot);
  return ix < statics_.size() ? statics_[ix] : Value{};
}

void Vm::raw_put_static(ClassId cls, std::uint32_t slot, const Value& v) {
  const std::uint64_t ix = static_index(cls, slot);
  if (ix >= statics_.size()) {
    // Grow to the registry's current slot total so one resize covers every
    // class registered so far (late registrations grow it again).
    statics_.resize(
        std::max<std::uint64_t>(ix + 1, registry_->static_slot_count()));
  }
  if (journal_recording()) {
    journal_.push_back({JournalEntry::Kind::static_slot, ObjectId::invalid(),
                        ix, statics_[ix], 0, {}});
  }
  statics_[ix] = v;
}

// --- arrays ---------------------------------------------------------------------

namespace {
void check_index(const Object& o, std::int64_t index) {
  if (index < 0 || index >= o.array_length()) {
    throw VmError(VmErrorCode::bad_array_index,
                  std::to_string(index) + " of " +
                      std::to_string(o.array_length()));
  }
}
}  // namespace

Value Vm::array_get_slow(ObjectRef arr, std::int64_t index) {
  if (arr.is_null()) {
    throw VmError(VmErrorCode::null_reference, "array_get on null");
  }
  Value v;
  bool remote = false;
  const ClassId tcls = class_of(arr.id);
  if (heap_.contains(arr.id)) {
    v = raw_array_get(arr.id, index);
  } else {
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote array, no peer");
    }
    v = peer_->array_get(arr.id, index);
    remote = true;
    stats_.remote_field_accesses += 1;
  }

  stats_.field_accesses += 1;
  note_access(tcls, arr.id, v.wire_size(), /*is_write=*/false, remote);
  return v;
}

void Vm::array_put_slow(ObjectRef arr, std::int64_t index, const Value& v) {
  if (arr.is_null()) {
    throw VmError(VmErrorCode::null_reference, "array_put on null");
  }
  bool remote = false;
  const ClassId tcls = class_of(arr.id);
  if (heap_.contains(arr.id)) {
    raw_array_put(arr.id, index, v);
  } else {
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote array, no peer");
    }
    peer_->array_put(arr.id, index, v);
    remote = true;
    stats_.remote_field_accesses += 1;
  }

  stats_.field_accesses += 1;
  note_access(tcls, arr.id, v.wire_size(), /*is_write=*/true, remote);
}

std::int64_t Vm::array_length(ObjectRef arr) {
  if (arr.is_null()) {
    throw VmError(VmErrorCode::null_reference, "array_length on null");
  }
  if (heap_.contains(arr.id)) return raw_array_length(arr.id);
  if (stubs_.contains(arr.id)) {
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote array, no peer");
    }
    stats_.remote_field_accesses += 1;
    return peer_->array_length(arr.id);
  }
  throw VmError(VmErrorCode::null_reference, "unknown array");
}

std::string Vm::chars_read(ObjectRef arr, std::int64_t offset,
                           std::int64_t length) {
  if (arr.is_null()) {
    throw VmError(VmErrorCode::null_reference, "chars_read on null");
  }
  std::string out;
  bool remote = false;
  const ClassId tcls = class_of(arr.id);
  if (heap_.contains(arr.id)) {
    out = raw_chars_read(arr.id, offset, length);
  } else {
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote array, no peer");
    }
    out = peer_->chars_read(arr.id, offset, length);
    remote = true;
    stats_.remote_field_accesses += 1;
  }

  stats_.field_accesses += 1;
  note_access(tcls, arr.id, out.size(), /*is_write=*/false, remote);
  return out;
}

void Vm::chars_write(ObjectRef arr, std::int64_t offset,
                     std::string_view data) {
  if (arr.is_null()) {
    throw VmError(VmErrorCode::null_reference, "chars_write on null");
  }
  bool remote = false;
  const ClassId tcls = class_of(arr.id);
  if (heap_.contains(arr.id)) {
    raw_chars_write(arr.id, offset, data);
  } else {
    if (peer_ == nullptr) {
      throw VmError(VmErrorCode::null_reference, "remote array, no peer");
    }
    peer_->chars_write(arr.id, offset, data);
    remote = true;
    stats_.remote_field_accesses += 1;
  }

  stats_.field_accesses += 1;
  note_access(tcls, arr.id, data.size(), /*is_write=*/true, remote);
}

Value Vm::raw_array_get(ObjectId target, std::int64_t index) {
  Object& o = require_local(target);
  check_index(o, index);
  switch (o.kind) {
    case ObjectKind::int_array: return Value{o.ints[index]};
    case ObjectKind::char_array:
      return Value{static_cast<std::int64_t>(
          static_cast<unsigned char>(o.chars[index]))};
    case ObjectKind::plain:
      throw VmError(VmErrorCode::type_mismatch, "array_get on plain object");
  }
  return Value{};
}

void Vm::raw_array_put(ObjectId target, std::int64_t index, const Value& v) {
  Object& o = require_local(target);
  check_index(o, index);
  if (journal_recording() && o.kind != ObjectKind::plain) {
    const std::int64_t old =
        o.kind == ObjectKind::int_array
            ? o.ints[index]
            : static_cast<std::int64_t>(
                  static_cast<unsigned char>(o.chars[index]));
    journal_.push_back({JournalEntry::Kind::array_elem, target,
                        static_cast<std::uint64_t>(index), Value{}, old, {}});
  }
  switch (o.kind) {
    case ObjectKind::int_array: o.ints[index] = v.as_int(); break;
    case ObjectKind::char_array:
      o.chars[index] = static_cast<char>(v.as_int());
      break;
    case ObjectKind::plain:
      throw VmError(VmErrorCode::type_mismatch, "array_put on plain object");
  }
  if (redo_log_ != nullptr) [[unlikely]] {
    const std::int64_t stored =
        o.kind == ObjectKind::int_array
            ? o.ints[index]
            : static_cast<std::int64_t>(
                  static_cast<unsigned char>(o.chars[index]));
    redo_log_->record_array(target, static_cast<std::uint64_t>(index), stored);
  }
}

std::int64_t Vm::raw_array_length(ObjectId target) {
  return require_local(target).array_length();
}

std::string Vm::raw_chars_read(ObjectId target, std::int64_t offset,
                               std::int64_t length) {
  Object& o = require_local(target);
  if (o.kind != ObjectKind::char_array) {
    throw VmError(VmErrorCode::type_mismatch, "chars_read on non-char array");
  }
  if (offset < 0 || length < 0 ||
      offset + length > static_cast<std::int64_t>(o.chars.size())) {
    throw VmError(VmErrorCode::bad_array_index, "chars_read out of range");
  }
  return o.chars.substr(static_cast<std::size_t>(offset),
                        static_cast<std::size_t>(length));
}

void Vm::raw_chars_write(ObjectId target, std::int64_t offset,
                         std::string_view data) {
  Object& o = require_local(target);
  if (o.kind != ObjectKind::char_array) {
    throw VmError(VmErrorCode::type_mismatch, "chars_write on non-char array");
  }
  if (offset < 0 ||
      offset + static_cast<std::int64_t>(data.size()) >
          static_cast<std::int64_t>(o.chars.size())) {
    throw VmError(VmErrorCode::bad_array_index, "chars_write out of range");
  }
  if (journal_recording()) {
    journal_.push_back({JournalEntry::Kind::chars, target,
                        static_cast<std::uint64_t>(offset), Value{}, 0,
                        o.chars.substr(static_cast<std::size_t>(offset),
                                       data.size())});
  }
  o.chars.replace(static_cast<std::size_t>(offset), data.size(), data);
  if (redo_log_ != nullptr) [[unlikely]] {
    redo_log_->record_chars(target, static_cast<std::uint64_t>(offset),
                            std::string(data));
  }
}

// --- migration -------------------------------------------------------------------

std::unique_ptr<Object> Vm::migrate_out(ObjectId id) {
  auto obj = heap_.extract(id);
  if (obj == nullptr) {
    throw VmError(VmErrorCode::null_reference,
                  cfg_.name + ": migrate_out of non-local object");
  }
  stubs_[id] = StubInfo{obj->cls, obj->kind, false};
  return obj;
}

void Vm::migrate_in(std::unique_ptr<Object> obj) {
  assert(obj != nullptr);
  reserve(obj->size_bytes());
  stubs_.erase(obj->id);
  obj->gc_mark = false;
  heap_.insert(std::move(obj));
}

void Vm::install_stub(ObjectId id, ClassId cls, ObjectKind kind) {
  if (heap_.contains(id)) return;  // already local; no stub needed
  stubs_.emplace(id, StubInfo{cls, kind, false});
}

}  // namespace aide::vm
