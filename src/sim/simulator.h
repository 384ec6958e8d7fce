// Single-threaded discrete-event simulation engine.
//
// The engine owns a virtual clock (seconds, double) and a pending-event set:
// a calendar queue over a pooled event slab (sim/calendar_queue.h) with
// O(1) amortized schedule/cancel/dispatch and no per-event heap allocation
// at steady state. Events scheduled for the same instant fire in scheduling
// order, which together with seeded RNGs makes every run bit-reproducible.
// tests/test_calendar_queue.cc checks the queue's (time, seq) order against
// a binary-heap reference.
//
// Event ids are sequential in scheduling order, so dispatches strictly
// increase in (time, id); replay digests hash those pairs.
//
// Cancellation is by EventId: timers such as ROST's per-node switching checks
// or CER repair timeouts are cancelled when the owning node departs. An
// EventId carries the event's id and the calendar slot it occupies, so
// Cancel and IsPending look the slot up directly; the id makes the handle
// exact, because no later event ever has the same one.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/calendar_queue.h"

namespace omcast::obs {
class SimProfiler;
}  // namespace omcast::obs

namespace omcast::sim {

// Handle for a scheduled event; value-semantic and cheap to copy. `value`
// is the event's 1-based scheduling number (its id: the trace observer sees
// it, and equality compares it); `slot` is where the calendar keeps the
// event while it pends.
struct EventId {
  std::uint64_t value = 0;
  std::int32_t slot = -1;
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

// Returned by EventId-producing calls that may be "nothing scheduled".
inline constexpr EventId kInvalidEventId{};

class Simulator {
 public:
  using Callback = std::function<void()>;
  // Observes every executed event (fired after the clock advanced, before
  // the callback runs). Used by the seed-replay determinism test to build a
  // rolling hash of the event trace; must not mutate the simulation.
  using TraceObserver = std::function<void(Time t, std::uint64_t event_id)>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time. Starts at 0.
  Time now() const { return now_; }

  // Schedules `cb` at absolute time `t` (must be >= now()). `tag` is an
  // optional event-type label for profiling (obs::SimProfiler); it must be a
  // string literal (or otherwise outlive the event) and never influences
  // scheduling order.
  EventId ScheduleAt(Time t, Callback cb, const char* tag = nullptr);

  // Schedules `cb` at now() + delay (delay must be >= 0).
  EventId ScheduleAfter(Time delay, Callback cb, const char* tag = nullptr);

  // Cancels a pending event. Returns true if the event was still pending.
  // Safe to call with an already-fired or invalid id.
  bool Cancel(EventId id);

  // True if `id` is scheduled and not yet fired or cancelled.
  bool IsPending(EventId id) const;

  // Runs until the queue is empty or Stop() is called.
  void Run();

  // Runs events with time <= t, then advances the clock to exactly t
  // (even if the queue still holds later events).
  void RunUntil(Time t);

  // Requests Run()/RunUntil() to return after the current callback.
  void Stop() { stopped_ = true; }

  // Number of callbacks executed so far (for tests and micro-benches).
  std::uint64_t executed_count() const { return executed_; }

  // Number of events currently pending.
  std::size_t pending_count() const { return calendar_.size(); }

  // Event-pool occupancy of the calendar queue. Surfaced through
  // obs::SimProfiler and --profile tables.
  CalendarQueue::PoolStats pool_stats() const {
    return calendar_.pool_stats();
  }

  // Installs (or clears, with nullptr) the per-event trace observer.
  void SetTraceObserver(TraceObserver observer) {
    trace_ = std::move(observer);
  }

  // Installs (or clears, with nullptr) a profiler that brackets every
  // dispatched callback with wall-time measurement and queue-depth sampling,
  // and times the run loop itself (queue-operation cost included).
  // Profiling never touches sim time or event order, so it is safe to attach
  // to a deterministic run; the profiler must outlive Run()/RunUntil().
  void SetProfiler(obs::SimProfiler* profiler) { profiler_ = profiler; }

 private:
  // Pops and runs the next event; returns false if none left.
  bool RunOne();
  // Executes one popped event: clock advance, ordering DCHECKs, trace hook,
  // profiler bracketing.
  void Dispatch(Time time, std::uint64_t seq, const char* tag, Callback cb);

  Time now_ = 0.0;
  // Scheduling number of the next event; its id is next_seq_ + 1, since 0 is
  // kInvalidEventId.
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Sequence number of the most recently executed event at the current
  // instant; used by the DCHECK tier to assert FIFO order at equal times.
  std::uint64_t last_seq_at_now_ = std::numeric_limits<std::uint64_t>::max();
  bool stopped_ = false;
  CalendarQueue calendar_;
  TraceObserver trace_;
  obs::SimProfiler* profiler_ = nullptr;  // not owned
};

}  // namespace omcast::sim
