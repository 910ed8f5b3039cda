#include "emul/fleet.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

namespace aide::emul {

namespace {

// Scheduling quantum: trace events one turn replays before the scheduler
// re-picks the furthest-behind session.
constexpr std::size_t kEventsPerTurn = 256;

// The shared pool's busy-until windows: pool_size members, each with
// surrogate_concurrency hardware contexts. Sessions acquire in the order the
// fleet scheduler replays their ops (min-virtual-time-first, so acquisition
// order is the deterministic merge order of the timelines). A session never
// queues behind its own previous acquisition on the same context: its
// occupancy is already serialized into its virtual clock, so only a
// *neighbor's* occupancy can push it out. Each session binds to one member
// context at its first acquire (binding_of) and keeps it. With
// pool_size == 1 and concurrency == 1 everything lands on one context: a
// single busy-until window.
class BusySurrogate final : public SurrogateService {
 public:
  BusySurrogate(FleetResult& out, std::size_t pool_size,
                std::size_t concurrency)
      : out_(out),
        members_(std::max<std::size_t>(pool_size, 1),
                 Member(std::max<std::size_t>(concurrency, 1))) {}

  void set_active(std::size_t session) noexcept { active_ = session; }

  SimDuration acquire(SimTime now, SimDuration service,
                      ServiceKind kind) override {
    const Binding b = binding_of(active_, now);
    Member& m = members_[b.member];
    Context& c = m.contexts[b.context];
    SimTime start = now;
    if (c.last_session != active_ && c.busy_until > now) {
      start = c.busy_until;
    }
    const SimDuration delay = start - now;
    c.busy_until = std::max(c.busy_until, start + service);
    c.last_session = active_;
    m.busy += service;
    out_.surrogate_busy += service;
    if (kind == ServiceKind::remote_op) {
      out_.total_remote_ops += 1;
      out_.op_latencies.push_back(service + delay);
    }
    return delay;
  }

  void fold_into(FleetResult& out) const {
    out.surrogate_busy_each.reserve(members_.size());
    for (const Member& m : members_) out.surrogate_busy_each.push_back(m.busy);
  }

 private:
  struct Context {
    SimTime busy_until = 0;
    std::size_t last_session = std::numeric_limits<std::size_t>::max();
  };

  struct Member {
    explicit Member(std::size_t concurrency) : contexts(concurrency) {}

    [[nodiscard]] std::size_t earliest_free() const noexcept {
      std::size_t best = 0;
      for (std::size_t i = 1; i < contexts.size(); ++i) {
        if (contexts[i].busy_until < contexts[best].busy_until) best = i;
      }
      return best;
    }
    [[nodiscard]] SimTime free_at() const noexcept {
      return contexts[earliest_free()].busy_until;
    }

    std::vector<Context> contexts;
    SimDuration busy = 0;
  };

  struct Binding {
    std::size_t member = 0;
    std::size_t context = 0;
  };

  // A session's surrogate half is *hosted*: its first acquire picks the
  // member whose earliest context frees first, then the earliest-free
  // context on it (ties to the lowest index both times), and every later
  // charge lands on that same context — a serial stream cannot use two
  // contexts at once. The schedule is a pure function of the acquire
  // sequence.
  Binding binding_of(std::size_t session, SimTime now) {
    const auto it = binding_.find(session);
    if (it != binding_.end()) return it->second;
    std::size_t best = 0;
    for (std::size_t i = 1; i < members_.size(); ++i) {
      if (members_[i].free_at() < members_[best].free_at()) best = i;
    }
    const Binding b{best, members_[best].earliest_free()};
    binding_.emplace(session, b);
    out_.placements.push_back(FleetPlacement{session, best, now});
    return b;
  }

  FleetResult& out_;
  std::vector<Member> members_;
  std::map<std::size_t, Binding> binding_;
  std::size_t active_ = std::numeric_limits<std::size_t>::max();
};

}  // namespace

FleetEmulator::FleetEmulator(std::shared_ptr<const vm::ClassRegistry> registry,
                             FleetConfig config)
    : registry_(std::move(registry)), config_(config) {}

FleetResult FleetEmulator::run(std::span<const Trace* const> traces) {
  FleetResult out;
  const std::size_t n = traces.size();
  out.sessions.reserve(n);
  if (n == 0) return out;

  BusySurrogate surrogate(out, config_.pool_size,
                          config_.surrogate_concurrency);

  std::vector<std::unique_ptr<Emulator>> sessions;
  sessions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto em = std::make_unique<Emulator>(registry_, config_.session);
    em->set_surrogate_service(&surrogate);
    em->begin(*traces[i]);
    sessions.push_back(std::move(em));
  }

  for (;;) {
    // Furthest-behind session runs next; ties break to the lowest index
    // (strict less-than), so the merge order is a pure function of the
    // traces and the config.
    std::size_t pick = n;
    SimTime pick_t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (sessions[i]->done()) continue;
      const SimTime t = sessions[i]->current_time();
      if (pick == n || t < pick_t) {
        pick = i;
        pick_t = t;
      }
    }
    if (pick == n) break;
    surrogate.set_active(pick);
    sessions[pick]->step(kEventsPerTurn);
    out.turns += 1;
  }

  for (std::size_t i = 0; i < n; ++i) {
    out.sessions.push_back(sessions[i]->finish());
    out.makespan = std::max(out.makespan, out.sessions.back().emulated_time);
  }
  surrogate.fold_into(out);
  return out;
}

FleetResult FleetEmulator::run(const Trace& trace, std::size_t n_sessions) {
  std::vector<const Trace*> traces(n_sessions, &trace);
  return run(std::span<const Trace* const>(traces));
}

}  // namespace aide::emul
