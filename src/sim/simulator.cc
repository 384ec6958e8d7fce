#include "sim/simulator.h"

#include <utility>

#include "obs/profile.h"
#include "util/check.h"

namespace omcast::sim {

EventId Simulator::ScheduleAt(Time t, Callback cb, const char* tag) {
  util::Check(t >= now_, "cannot schedule an event in the past");
  util::Check(static_cast<bool>(cb), "event callback must be callable");
  OMCAST_DCHECK(t == t, "event time must not be NaN");
  const std::uint64_t seq = next_seq_++;
  return EventId{seq + 1, calendar_.Insert(t, seq, tag, std::move(cb))};
}

EventId Simulator::ScheduleAfter(Time delay, Callback cb, const char* tag) {
  util::Check(delay >= 0.0, "event delay must be non-negative");
  return ScheduleAt(now_ + delay, std::move(cb), tag);
}

bool Simulator::Cancel(EventId id) {
  // Cancelling a handle the simulator never issued is a bookkeeping bug in
  // the caller (a stale copy from another simulator, or uninitialized state);
  // kInvalidEventId is the documented "nothing scheduled" value and is fine.
  OMCAST_DCHECK(id.value <= next_seq_, "Cancel: event id was never issued");
  if (id.value == 0) return false;
  return calendar_.Erase(id.value - 1, id.slot);
}

bool Simulator::IsPending(EventId id) const {
  OMCAST_DCHECK(id.value <= next_seq_, "IsPending: event id was never issued");
  return id.value != 0 && calendar_.Contains(id.value - 1, id.slot);
}

void Simulator::Dispatch(Time time, std::uint64_t seq, const char* tag,
                         Callback cb) {
  // The queue must hand events over in non-decreasing time, FIFO at equal
  // times: the bit-reproducibility of every run rests on this ordering.
  OMCAST_DCHECK(time >= now_, "event queue must be time-monotonic");
  OMCAST_DCHECK(
      time > now_ ||
          last_seq_at_now_ == std::numeric_limits<std::uint64_t>::max() ||
          seq > last_seq_at_now_,
      "events at equal times must fire in scheduling order");
  last_seq_at_now_ = seq;
  now_ = time;
  ++executed_;
  if (trace_) trace_(time, seq + 1);
  if (profiler_ != nullptr) {
    // Memory is sampled, not polled: getrusage once per event would dominate
    // the very hot path this profiler exists to measure.
    if ((executed_ & 0xFFF) == 0) {
      const CalendarQueue::PoolStats ps = pool_stats();
      profiler_->SampleMemory(ps.live, ps.slab_capacity);
    }
    profiler_->BeginEvent(tag, pending_count());
    cb();
    profiler_->EndEvent();
  } else {
    cb();
  }
}

bool Simulator::RunOne() {
  if (calendar_.empty()) return false;
  Time time = 0.0;
  std::uint64_t seq = 0;
  const char* tag = nullptr;
  Callback cb;
  calendar_.PopMin(&time, &seq, &tag, &cb);
  Dispatch(time, seq, tag, std::move(cb));
  return true;
}

void Simulator::Run() {
  stopped_ = false;
  if (profiler_ != nullptr) profiler_->BeginLoop();
  while (!stopped_ && RunOne()) {
  }
  if (profiler_ != nullptr) {
    const CalendarQueue::PoolStats ps = pool_stats();
    profiler_->SampleMemory(ps.live, ps.slab_capacity);
    profiler_->EndLoop();
  }
}

void Simulator::RunUntil(Time t) {
  util::Check(t >= now_, "cannot run backwards in time");
  stopped_ = false;
  if (profiler_ != nullptr) profiler_->BeginLoop();
  while (!stopped_) {
    if (calendar_.empty() || calendar_.PeekTime() > t) break;
    RunOne();
  }
  if (profiler_ != nullptr) {
    const CalendarQueue::PoolStats ps = pool_stats();
    profiler_->SampleMemory(ps.live, ps.slab_capacity);
    profiler_->EndLoop();
  }
  if (!stopped_) now_ = t;
}

}  // namespace omcast::sim
