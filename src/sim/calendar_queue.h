// Calendar queue (Brown 1988) with a pooled event slab: the O(1)-amortized
// pending-event set behind sim::Simulator.
//
// Design, in one breath: events live in a slab (std::vector<Event>) recycled
// through a LIFO free list, so steady-state scheduling performs no heap
// allocation beyond what each callback's std::function already owns; a
// bucket holds one Entry per *distinct* pending time -- sorted descending so
// the bucket minimum is the back -- and each Entry chains its equal-time
// events through doubly-linked slab slots in insertion (= seq) order, which
// preserves the simulator's FIFO-at-equal-times contract while making the
// synchronized-timer pileup (10^5 monitors armed at one instant) O(1) per
// insert, pop and cancel instead of an O(n) memmove; a bucket's index is
// floor(time / width) modulo a power-of-two bucket count; dispatch walks the
// calendar one bucket-width "day" at a time and falls back to a direct
// minimum scan after a fruitless full year, so sparse tails (departure
// timers hours out) cannot make a single pop unbounded.
//
// Cancellation is EAGER: Erase() unlinks the chain node and frees the slot
// immediately, so occupancy tracks the live event count and size() is exact.
// A bucket that a pop or an erase leaves below a quarter of its capacity
// shrinks to fit (an empty one frees all of it): the dense head of the
// pending set sweeps through every bucket once per calendar year, so a
// bucket that kept its high-water capacity would leave the whole calendar
// sized for that crest long after it passed. Bucket storage stays within
// four Entries per pending event.
// An event is addressed by its (seq, slot) pair: Insert returns the slot,
// and Erase/Contains match the slot's seq against the caller's. A freed
// slot's seq is stamped kFreeSeq, which no insert uses, and a seq is never
// inserted twice, so a pair whose event fired or was cancelled never matches
// again -- not even after the LIFO free list hands its slot to a later event.
//
// Determinism: width estimation and resizing depend only on the pending set
// (sampled time gaps and operation counters), never on wall clock or RNG, so
// two runs that schedule identical (time, seq) streams make identical
// resizing decisions; slots are reused in a fixed (LIFO) order.
// tests/test_calendar_queue.cc drives this queue and a binary-heap
// reference through identical operation streams and requires identical
// pops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace omcast::sim {

using Time = double;

class CalendarQueue {
 public:
  using Callback = std::function<void()>;

  // Occupancy snapshot for obs::SimProfiler / bench --profile tables.
  struct PoolStats {
    std::size_t live = 0;            // events currently pending
    std::size_t slab_capacity = 0;   // pooled Event slots (live + free)
    std::size_t bucket_count = 0;    // calendar days per year
    double bucket_width_s = 0.0;     // seconds per day
    std::uint64_t rebuilds = 0;      // resize / re-width operations so far
    // Heap bytes of Entry storage reserved across all buckets (the bucket
    // array's own headers excluded: bucket_count fixes those).
    std::size_t bucket_bytes = 0;
  };

  CalendarQueue();
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  // A seq no insert may use: it marks a free slab slot.
  static constexpr std::uint64_t kFreeSeq =
      std::numeric_limits<std::uint64_t>::max();

  // Inserts an event and returns the slab slot it occupies while pending.
  // seq must strictly increase across all inserts and differ from kFreeSeq.
  std::int32_t Insert(Time time, std::uint64_t seq, const char* tag,
                      Callback cb);

  // Removes the event that Insert gave (seq, slot). Returns false if that
  // event no longer pends (it fired or was cancelled).
  bool Erase(std::uint64_t seq, std::int32_t slot);

  // True if the event that Insert gave (seq, slot) is pending. A slot
  // outside the slab is never pending.
  bool Contains(std::uint64_t seq, std::int32_t slot) const {
    return slot >= 0 && static_cast<std::size_t>(slot) < slab_.size() &&
           slab_[static_cast<std::size_t>(slot)].seq == seq;
  }

  // Time of the earliest pending event. Requires !empty().
  Time PeekTime();

  // Pops the earliest pending event -- minimum (time, seq) -- into the out
  // parameters. Requires !empty(). `tag` may be nullptr.
  void PopMin(Time* time, std::uint64_t* seq, const char** tag,
              Callback* cb);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  PoolStats pool_stats() const;

 private:
  struct Event {
    Callback cb;
    Time time = 0.0;
    std::uint64_t seq = kFreeSeq;
    const char* tag = nullptr;  // profiling label; not owned
    // Doubly-linked chain of equal-time events in one bucket Entry, in
    // insertion (= seq) order. While the slot is on the free list, `next`
    // doubles as the free-list link.
    std::int32_t prev = -1;
    std::int32_t next = -1;
  };
  // One Entry per distinct pending time in the bucket, sorted descending by
  // time so the bucket minimum is the back. head/tail bound the equal-time
  // chain: head is the oldest (lowest seq, the pop target), tail the newest.
  struct Entry {
    Time time = 0.0;
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };

  std::int32_t AllocSlot();
  void FreeSlot(std::int32_t slot);
  std::size_t BucketIndex(Time t) const;
  void BucketInsert(std::size_t bucket, Time time, std::int32_t slot);
  // Gives back a bucket's storage beyond four times its size (see the
  // header comment).
  void TrimBucket(std::vector<Entry>& bucket);
  // Locates the earliest pending entry, advancing cur_day_. Returns the
  // bucket index holding it. Requires !empty().
  std::size_t FindMinBucket();
  // Rebuilds the calendar for the current live set: re-estimates the width,
  // picks a new bucket count and redistributes every pending entry (chains
  // move wholesale -- a time value lives in exactly one Entry).
  void Rebuild();
  double EstimateWidth() const;
  void MaybeResizeAfterInsert();
  void MaybeResizeAfterErase();

  std::vector<Event> slab_;
  std::int32_t free_head_ = -1;
  std::vector<std::vector<Entry>> buckets_;
  std::size_t bucket_mask_ = 0;    // buckets_.size() - 1 (power of two)
  std::size_t bucket_slots_ = 0;   // sum of the buckets' Entry capacities
  double width_ = 1.0;             // seconds per bucket
  double inv_width_ = 1.0;         // 1 / width_ (division off the hot path)
  // Dispatch scan position: the calendar "day" (floor(time / width)) being
  // drained. Inserts rewind it; FindMinBucket advances it.
  std::uint64_t cur_day_ = 0;
  std::size_t live_ = 0;
  // Scan-cost trigger: a calendar whose width no longer matches the live
  // distribution walks many empty buckets per pop; when the walk-to-pop
  // ratio degenerates the queue re-estimates the width. Counts, not clocks.
  std::uint64_t scan_steps_ = 0;
  std::uint64_t pops_ = 0;
  // Shift-cost trigger: the mirror failure mode. A width that is too WIDE
  // for the dense part of the pending set piles many *distinct* times into
  // a few buckets, so sorted inserts memmove O(bucket) Entries -- while
  // producing zero empty-day scan steps, invisibly to the trigger above.
  // Count the Entries displaced per insert and re-estimate when the
  // shift-per-insert ratio degenerates. Equal-time chain appends displace
  // nothing, so a synchronized pileup (which no width can split) cannot
  // storm this trigger. Counts, not clocks.
  std::uint64_t shift_steps_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace omcast::sim
