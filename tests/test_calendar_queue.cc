// sim::CalendarQueue against the seed's binary heap.
//
// The calendar queue is sim::Simulator's only pending-event set, and every
// replay digest rests on it popping events in exact (time, seq) order.
// HeapQueue below is the seed's pending-event set, kept here as the
// reference. Each test drives both queues through one seeded operation
// stream: every pop must return the same (time, seq, tag) and the event's
// own callback, and PeekTime, Contains and size must agree throughout.
#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rand/rng.h"

namespace omcast::sim {
namespace {

using Callback = CalendarQueue::Callback;

// The seed's pending-event set: a binary heap ordered by (time, seq) with
// lazy cancellation through a membership-only ledger.
class HeapQueue {
 public:
  void Insert(Time time, std::uint64_t seq, std::uint64_t id,
              const char* tag, Callback cb) {
    queue_.push(Event{time, seq, id, tag, std::move(cb)});
    pending_.insert(id);
  }

  bool Erase(std::uint64_t id) { return pending_.erase(id) > 0; }
  bool Contains(std::uint64_t id) const { return pending_.contains(id); }
  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }

  // Requires !empty().
  Time PeekTime() {
    // Drop cancelled heads so the next-time peek is accurate.
    while (!queue_.empty() && !pending_.contains(queue_.top().id))
      queue_.pop();
    return queue_.top().time;
  }

  // Requires !empty().
  void PopMin(Time* time, std::uint64_t* seq, std::uint64_t* id,
              const char** tag, Callback* cb) {
    while (!queue_.empty()) {
      // priority_queue::top() is const; the callback is moved out via
      // const_cast, which is safe because the element is popped immediately.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (pending_.erase(ev.id) == 0) continue;  // cancelled
      *time = ev.time;
      *seq = ev.seq;
      *id = ev.id;
      *tag = ev.tag;
      *cb = std::move(ev.cb);
      return;
    }
  }

 private:
  struct Event {
    Time time = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break at equal times
    std::uint64_t id = 0;
    const char* tag = nullptr;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Never iterated: membership-only cancellation ledger, so the hash order
  // cannot leak into the pop order.
  // omcast-lint: allow(unordered-iter)
  std::unordered_set<std::uint64_t> pending_;
};

// One operation stream applied to both queues. Seqs and ids are issued the
// way Simulator::ScheduleAt issues them: sequentially, id = seq + 1. The
// calendar addresses an event by (seq, slot), so the pair records the slot
// each id got at insert.
class QueuePair {
 public:
  std::uint64_t Insert(Time t) {
    const std::uint64_t seq = next_seq_++;
    const std::uint64_t id = seq + 1;
    const char* tag = kTags[seq % 3];
    slots_.push_back(calendar_.Insert(t, seq, tag, [this, id] { fired_ = id; }));
    heap_.Insert(t, seq, id, tag, [this, id] { fired_ = id; });
    return id;
  }

  // Cancels `id` (pending or not) in both queues.
  ::testing::AssertionResult Erase(std::uint64_t id) {
    const bool in_calendar = calendar_.Erase(id - 1, SlotOf(id));
    const bool in_heap = heap_.Erase(id);
    if (in_calendar != in_heap)
      return ::testing::AssertionFailure()
             << "Erase(" << id << "): calendar " << in_calendar << ", heap "
             << in_heap;
    return Agree(id);
  }

  // Pops the minimum from both queues; `popped` receives its time and
  // `popped_id` its id.
  ::testing::AssertionResult Pop(Time* popped = nullptr,
                                 std::uint64_t* popped_id = nullptr) {
    if (calendar_.empty() || heap_.empty())
      return ::testing::AssertionFailure()
             << "pop with sizes " << calendar_.size() << " / " << heap_.size();
    const Time calendar_peek = calendar_.PeekTime();
    const Time heap_peek = heap_.PeekTime();
    Popped c;
    Popped h;
    calendar_.PopMin(&c.time, &c.seq, &c.tag, &c.cb);
    heap_.PopMin(&h.time, &h.seq, &h.id, &h.tag, &h.cb);
    c.id = c.seq + 1;
    if (calendar_peek != heap_peek || c.time != h.time || c.seq != h.seq ||
        c.id != h.id || c.tag != h.tag)
      return ::testing::AssertionFailure()
             << "calendar peeked " << calendar_peek << " and popped ("
             << c.time << ", seq " << c.seq << ", id " << c.id
             << "); heap peeked " << heap_peek << " and popped (" << h.time
             << ", seq " << h.seq << ", id " << h.id << ")";
    fired_ = 0;
    c.cb();
    if (fired_ != c.id)
      return ::testing::AssertionFailure()
             << "event " << c.id << " carried the callback of " << fired_;
    if (popped != nullptr) *popped = c.time;
    if (popped_id != nullptr) *popped_id = c.id;
    return Agree(c.id);
  }

  // Both queues agree on Contains(id) and on size().
  ::testing::AssertionResult Agree(std::uint64_t id) const {
    const bool in_calendar = calendar_.Contains(id - 1, SlotOf(id));
    if (in_calendar != heap_.Contains(id))
      return ::testing::AssertionFailure()
             << "Contains(" << id << "): calendar " << in_calendar
             << ", heap " << heap_.Contains(id);
    if (calendar_.size() != heap_.size())
      return ::testing::AssertionFailure()
             << "size: calendar " << calendar_.size() << ", heap "
             << heap_.size();
    return ::testing::AssertionSuccess();
  }

  // Pops everything, checking each pop.
  ::testing::AssertionResult Drain() {
    while (!calendar_.empty() || !heap_.empty()) {
      ::testing::AssertionResult popped = Pop();
      if (!popped) return popped;
    }
    return ::testing::AssertionSuccess();
  }

  // Requires both queues non-empty.
  Time PeekTime() {
    const Time t = calendar_.PeekTime();
    EXPECT_EQ(t, heap_.PeekTime());
    return t;
  }

  std::size_t size() const { return calendar_.size(); }
  const CalendarQueue& calendar() const { return calendar_; }

 private:
  static constexpr const char* kTags[3] = {"t.a", "t.b", "t.c"};
  std::int32_t SlotOf(std::uint64_t id) const {
    return slots_[static_cast<std::size_t>(id - 1)];
  }

  struct Popped {
    Time time = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;
    const char* tag = nullptr;
    Callback cb;
  };

  CalendarQueue calendar_;
  HeapQueue heap_;
  std::vector<std::int32_t> slots_;  // calendar slot, indexed by id - 1
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

// The churn workload's timer mix (bench/micro_core's MixedDeadline): 1 s
// heartbeat periods, 3-5 s suspicion deadlines, long-tail lifetimes.
double MixedDeadline(rnd::Rng& rng) {
  const double u = rng.Uniform(0.0, 1.0);
  if (u < 0.45) return rng.Uniform(0.0, 1.0);        // heartbeat period
  if (u < 0.90) return rng.Uniform(3.0, 5.0);        // suspicion deadline
  return rng.ExponentialMean(1809.0);                // member lifetime
}

TEST(CalendarQueue, MatchesHeapOnChurnDeadlineMix) {
  rnd::Rng rng(42);
  QueuePair q;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20000; ++i) ids.push_back(q.Insert(MixedDeadline(rng)));
  Time now = 0.0;
  for (int step = 0; step < 150000; ++step) {
    ASSERT_TRUE(q.Pop(&now)) << "step " << step;
    // Each dispatch arms its replacement; every tenth lands on a whole
    // second, as synchronized heartbeats do, so equal-time chains form.
    ids.push_back(q.Insert(step % 10 == 0 ? std::ceil(now) + 4.0
                                          : now + MixedDeadline(rng)));
    if (step % 4 == 0) {
      // A re-arm: cancel a recent timer (pending, fired or already
      // cancelled) and schedule anew.
      const std::size_t back =
          rng.UniformIndex(std::min<std::size_t>(ids.size(), 30000));
      ASSERT_TRUE(q.Erase(ids[ids.size() - 1 - back])) << "step " << step;
      ids.push_back(q.Insert(now + MixedDeadline(rng)));
    }
  }
  ASSERT_TRUE(q.Drain());
}

TEST(CalendarQueue, MatchesHeapOnEqualTimePileup) {
  // Prepopulate arms one suspicion monitor per member at the same instant.
  rnd::Rng rng(7);
  QueuePair q;
  std::vector<std::uint64_t> pile;
  for (int i = 0; i < 20000; ++i) {
    pile.push_back(q.Insert(4.0));
    if (i % 10 == 0) q.Insert(rng.Uniform(0.0, 8.0));
  }
  for (std::size_t i = 0; i < pile.size(); i += 7)
    ASSERT_TRUE(q.Erase(pile[i]));
  Time now = 0.0;
  while (q.PeekTime() < 4.0) ASSERT_TRUE(q.Pop(&now));
  // Events scheduled at the instant while it drains queue behind the pile.
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(q.Pop(&now)) << "pop " << i;
    ASSERT_EQ(now, 4.0);
    if (i % 5 == 0) q.Insert(4.0);
  }
  ASSERT_TRUE(q.Drain());
}

TEST(CalendarQueue, MatchesHeapWhenErasingChainHeadsMiddlesAndTails) {
  rnd::Rng rng(1234);
  QueuePair q;
  // 300 equal-time chains of five events, each with a singleton neighbour
  // in the same bucket range.
  constexpr int kChains = 300;
  std::vector<std::vector<std::uint64_t>> chains(kChains);
  for (int round = 0; round < 5; ++round) {
    for (int c = 0; c < kChains; ++c) {
      const double t = 10.0 + 0.25 * c;
      chains[static_cast<std::size_t>(c)].push_back(q.Insert(t));
      if (round == 0) q.Insert(t + 0.1);
    }
  }
  for (int c = 0; c < kChains; ++c) {
    const std::vector<std::uint64_t>& chain =
        chains[static_cast<std::size_t>(c)];
    switch (c % 6) {
      case 0:  // head
        ASSERT_TRUE(q.Erase(chain[0]));
        break;
      case 1:  // middle
        ASSERT_TRUE(q.Erase(chain[2]));
        break;
      case 2:  // tail
        ASSERT_TRUE(q.Erase(chain[4]));
        break;
      case 3:  // head and tail, then the new head
        ASSERT_TRUE(q.Erase(chain[0]));
        ASSERT_TRUE(q.Erase(chain[4]));
        ASSERT_TRUE(q.Erase(chain[1]));
        break;
      case 4:  // the whole chain, middle out
        for (int i : {2, 1, 3, 0, 4})
          ASSERT_TRUE(q.Erase(chain[static_cast<std::size_t>(i)]));
        break;
      default:  // untouched
        break;
    }
  }
  // Erasing again is a no-op in both queues.
  ASSERT_TRUE(q.Erase(chains[0][0]));
  ASSERT_TRUE(q.Erase(chains[4][2]));
  // A chain whose head went still queues newcomers last.
  for (int c = 0; c < kChains; c += 3) q.Insert(10.0 + 0.25 * c);
  // Random pending ids among a spread of other events, interleaved with
  // pops so erasures also hit the bucket being drained.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5000; ++i) ids.push_back(q.Insert(rng.Uniform(0.0, 90.0)));
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(q.Erase(ids[rng.UniformIndex(ids.size())])) << "erase " << i;
    if (i % 3 == 0) {
      ASSERT_TRUE(q.Pop()) << "pop " << i;
    }
  }
  ASSERT_TRUE(q.Drain());
}

TEST(CalendarQueue, MatchesHeapThroughGrowthRetunesAndFruitlessYears) {
  rnd::Rng rng(99);
  QueuePair q;
  // Hours-out member lifetimes first: the growth rebuilds size the bucket
  // width to their seconds-scale spacing.
  for (int i = 0; i < 9000; ++i) q.Insert(rng.Uniform(3600.0, 36000.0));
  // Then 10^5 near-term timers armed in time order. Under that wide width
  // they pile distinct times into one bucket, each insert shifting the
  // whole bucket, until the shift trigger re-estimates the width; growth
  // rebuilds follow.
  std::vector<double> near(100000);
  for (double& t : near) t = rng.Uniform(0.0, 5.0);
  std::sort(near.begin(), near.end());
  for (const double t : near) q.Insert(t);
  ASSERT_GT(q.size(), 100000u);
  const std::uint64_t rebuilds_after_growth = q.calendar().pool_stats().rebuilds;
  EXPECT_GT(rebuilds_after_growth, 0u);
  // Drain the near-term timers (shrink rebuilds keep the width sized for
  // them) until only the lifetimes remain, hours beyond the calendar's
  // year: pops now take the fruitless-year minimum scan until the
  // empty-day scan trigger re-estimates the width.
  while (q.PeekTime() < 3600.0) ASSERT_TRUE(q.Pop());
  ASSERT_EQ(q.size(), 9000u);
  ASSERT_TRUE(q.Drain());
  EXPECT_GT(q.calendar().pool_stats().rebuilds, rebuilds_after_growth);
}

TEST(CalendarQueue, BucketStorageFollowsTheLiveCountAcrossManyYears) {
  // The heartbeat workload's shape: periodic 1 s send timers, each fire
  // spawning short-horizon deliveries to its children, over hours-out
  // lifetimes that stay pending throughout. The deliveries make a dense
  // crest just ahead of the clock that sweeps through every bucket once
  // per calendar year; no bucket may keep its share of the crest after the
  // crest passed, including a bucket that a lifetime keeps from emptying.
  constexpr int kSenders = 2000;
  constexpr int kChildren = 8;
  constexpr double kSpan = 100.0;
  rnd::Rng rng(5);
  QueuePair q;
  std::vector<char> periodic;  // indexed by event id
  const auto arm = [&](Time t, bool is_periodic) {
    const std::uint64_t id = q.Insert(t);
    if (periodic.size() <= id) periodic.resize(id + 1, 0);
    periodic[id] = is_periodic ? 1 : 0;
  };
  for (int i = 0; i < kSenders; ++i) {
    arm(rng.Uniform(0.0, 1.0), true);
    arm(rng.Uniform(3600.0, 36000.0), false);
  }
  Time now = 0.0;
  std::size_t worst_bytes_per_live = 0;
  while (now < kSpan) {
    std::uint64_t id = 0;
    ASSERT_TRUE(q.Pop(&now, &id)) << "at t=" << now;
    if (periodic[id] == 0) continue;
    arm(now + 1.0, true);
    for (int c = 0; c < kChildren; ++c) arm(now + rng.Uniform(0.005, 0.05), false);
    const CalendarQueue::PoolStats stats = q.calendar().pool_stats();
    if (now > 2.0)
      worst_bytes_per_live =
          std::max(worst_bytes_per_live, stats.bucket_bytes / stats.live);
  }
  const CalendarQueue::PoolStats stats = q.calendar().pool_stats();
  const double year_s =
      static_cast<double>(stats.bucket_count) * stats.bucket_width_s;
  EXPECT_GT(kSpan / year_s, 10.0) << "too few calendar years to ratchet";
  // An Entry is 16 bytes: at most four of them per pending event.
  EXPECT_LE(worst_bytes_per_live, 64u);
  ASSERT_TRUE(q.Drain());
  EXPECT_EQ(q.calendar().pool_stats().bucket_bytes, 0u);
}

}  // namespace
}  // namespace omcast::sim
