#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

namespace omcast::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.executed_count(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(3.0, [&] { order.push_back(3); });
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(2.0, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.ScheduleAt(5.0, [&, i] { order.push_back(i); });
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  double fired_at = -1.0;
  s.ScheduleAt(10.0, [&] {
    s.ScheduleAfter(5.0, [&] { fired_at = s.now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.ScheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.IsPending(id));
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.IsPending(id));
  EXPECT_FALSE(s.Cancel(id));  // second cancel is a no-op
  s.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.executed_count(), 0u);
}

TEST(Simulator, CancelOfFiredEventReturnsFalse) {
  Simulator s;
  const EventId id = s.ScheduleAt(1.0, [] {});
  s.Run();
  EXPECT_FALSE(s.Cancel(id));
}

TEST(Simulator, CancelInvalidIdIsSafe) {
  Simulator s;
  EXPECT_FALSE(s.Cancel(kInvalidEventId));
}

TEST(Simulator, StaleHandleNeverMatchesTheEventThatReusedItsSlot) {
  Simulator s;
  // Cancelled: the LIFO free list hands A's slot to B.
  const EventId a = s.ScheduleAt(1.0, [] {});
  ASSERT_TRUE(s.Cancel(a));
  bool b_fired = false;
  const EventId b = s.ScheduleAt(1.0, [&] { b_fired = true; });
  ASSERT_EQ(b.slot, a.slot);
  EXPECT_FALSE(s.IsPending(a));
  EXPECT_FALSE(s.Cancel(a));
  EXPECT_TRUE(s.IsPending(b));
  s.Run();
  EXPECT_TRUE(b_fired);
  // Fired: C takes the slot B fired from.
  bool c_fired = false;
  const EventId c = s.ScheduleAt(2.0, [&] { c_fired = true; });
  ASSERT_EQ(c.slot, b.slot);
  EXPECT_FALSE(s.IsPending(b));
  EXPECT_FALSE(s.Cancel(b));
  EXPECT_FALSE(s.Cancel(a));
  EXPECT_TRUE(s.IsPending(c));
  s.Run();
  EXPECT_TRUE(c_fired);
}

TEST(Simulator, InvalidEventIdIsNeverPending) {
  Simulator s;
  EXPECT_FALSE(s.IsPending(kInvalidEventId));
  const EventId id = s.ScheduleAt(1.0, [] {});
  EXPECT_FALSE(s.IsPending(kInvalidEventId));
  EXPECT_FALSE(s.Cancel(kInvalidEventId));
  EXPECT_TRUE(s.IsPending(id));
  EXPECT_NE(id, kInvalidEventId);
}

TEST(Simulator, TraceObserverSeesIdsInSchedulingOrder) {
  Simulator s;
  std::vector<std::uint64_t> seen;
  s.SetTraceObserver([&](Time, std::uint64_t id) { seen.push_back(id); });
  std::vector<std::uint64_t> issued;
  // Each event schedules and cancels one event, then schedules the next
  // from its callback: every one of them reuses the same slot.
  std::function<void()> next = [&] {
    if (issued.size() >= 6) return;
    const EventId dropped = s.ScheduleAfter(0.5, [] {});
    issued.push_back(dropped.value);
    s.Cancel(dropped);
    issued.push_back(s.ScheduleAfter(1.0, next).value);
  };
  issued.push_back(s.ScheduleAt(0.0, next).value);
  s.Run();
  EXPECT_EQ(issued, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 3, 5, 7}));
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator s;
  int count = 0;
  s.ScheduleAt(1.0, [&] { ++count; });
  s.ScheduleAt(9.0, [&] { ++count; });
  s.RunUntil(5.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 5.0);  // clock lands exactly on the boundary
  s.RunUntil(20.0);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20.0);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator s;
  bool fired = false;
  s.ScheduleAt(5.0, [&] { fired = true; });
  s.RunUntil(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator s;
  int count = 0;
  s.ScheduleAt(1.0, [&] {
    ++count;
    s.Stop();
  });
  s.ScheduleAt(2.0, [&] { ++count; });
  s.Run();
  EXPECT_EQ(count, 1);
  s.Run();  // resumes with remaining events
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.ScheduleAfter(1.0, recurse);
  };
  s.ScheduleAt(0.0, recurse);
  s.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99.0);
}

TEST(Simulator, CancelledHeadDoesNotBlockRunUntil) {
  Simulator s;
  const EventId id = s.ScheduleAt(1.0, [] {});
  bool fired = false;
  s.ScheduleAt(2.0, [&] { fired = true; });
  s.Cancel(id);
  s.RunUntil(3.0);
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Simulator, ExecutedCountTracksCallbacks) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.ScheduleAt(static_cast<double>(i), [] {});
  s.Run();
  EXPECT_EQ(s.executed_count(), 7u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(1.0, [&] {
    order.push_back(1);
    s.ScheduleAfter(0.0, [&] { order.push_back(2); });
  });
  s.ScheduleAt(1.0, [&] { order.push_back(3); });
  s.Run();
  // The zero-delay event lands after the already-queued same-time event.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorDeath, SchedulingInThePastAborts) {
  Simulator s;
  s.ScheduleAt(5.0, [] {});
  s.Run();
  EXPECT_DEATH(s.ScheduleAt(1.0, [] {}), "past");
}

}  // namespace
}  // namespace omcast::sim
