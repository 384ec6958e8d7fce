#include "sim/calendar_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace omcast::sim {

namespace {

constexpr std::size_t kMinBuckets = 16;
// Bucket-count ceiling: 2M vector headers are ~50MB, enough days for tens of
// millions of pending events at occupancy ~8 before the cap binds.
constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;
constexpr std::size_t kWidthSampleCap = 1024;

std::size_t NextPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

CalendarQueue::CalendarQueue() {
  buckets_.resize(kMinBuckets);
  bucket_mask_ = kMinBuckets - 1;
}

std::int32_t CalendarQueue::AllocSlot() {
  if (free_head_ >= 0) {
    const std::int32_t slot = free_head_;
    free_head_ = slab_[static_cast<std::size_t>(slot)].next;
    return slot;
  }
  util::Check(slab_.size() < static_cast<std::size_t>(
                                 std::numeric_limits<std::int32_t>::max()),
              "event pool exhausted");
  slab_.emplace_back();
  return static_cast<std::int32_t>(slab_.size() - 1);
}

void CalendarQueue::FreeSlot(std::int32_t slot) {
  Event& ev = slab_[static_cast<std::size_t>(slot)];
  ev.cb = nullptr;  // release the closure's captures now, not at slab reuse
  ev.seq = kFreeSeq;  // no handle matches a free slot
  ev.tag = nullptr;
  ev.prev = -1;
  ev.next = free_head_;  // `next` doubles as the free-list link
  free_head_ = slot;
}

std::size_t CalendarQueue::BucketIndex(Time t) const {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(t * inv_width_)) &
         bucket_mask_;
}

void CalendarQueue::BucketInsert(std::size_t bucket, Time time,
                                 std::int32_t slot) {
  std::vector<Entry>& b = buckets_[bucket];
  Event& ev = slab_[static_cast<std::size_t>(slot)];
  ev.prev = -1;
  ev.next = -1;
  ++inserts_;
  // Descending by time, one Entry per distinct time: pop_back is the bucket
  // minimum. lower_bound lands on the first Entry at or below `time`.
  auto pos = std::lower_bound(
      b.begin(), b.end(), time,
      [](const Entry& e, Time t) { return e.time > t; });
  if (pos != b.end() && pos->time == time) {
    // Equal-time chain append: seq increases with insertion order, so the
    // chain stays FIFO (= seq order) with no comparison and no memmove.
    ev.prev = pos->tail;
    slab_[static_cast<std::size_t>(pos->tail)].next = slot;
    pos->tail = slot;
    return;
  }
  shift_steps_ += static_cast<std::uint64_t>(b.end() - pos);
  const std::size_t capacity = b.capacity();
  b.insert(pos, Entry{time, slot, slot});
  bucket_slots_ += b.capacity() - capacity;
}

void CalendarQueue::TrimBucket(std::vector<Entry>& bucket) {
  if (bucket.capacity() <= 4 * bucket.size()) return;
  bucket_slots_ -= bucket.capacity();
  std::vector<Entry>(bucket.begin(), bucket.end()).swap(bucket);
  bucket_slots_ += bucket.capacity();
}

std::int32_t CalendarQueue::Insert(Time time, std::uint64_t seq,
                                   const char* tag, Callback cb) {
  OMCAST_DCHECK(seq != kFreeSeq, "the free-slot seq cannot be inserted");
  const std::int32_t slot = AllocSlot();
  Event& ev = slab_[static_cast<std::size_t>(slot)];
  ev.cb = std::move(cb);
  ev.time = time;
  ev.seq = seq;
  ev.tag = tag;
  const std::uint64_t day = static_cast<std::uint64_t>(time * inv_width_);
  BucketInsert(static_cast<std::size_t>(day) & bucket_mask_, time, slot);
  // Keep the dispatch scan at or before the earliest event: RunUntil may
  // have walked the scan ahead of the clock through empty days, and the
  // next schedule can land behind it.
  if (live_ == 0 || day < cur_day_) cur_day_ = day;
  ++live_;
  MaybeResizeAfterInsert();
  return slot;
}

bool CalendarQueue::Erase(std::uint64_t seq, std::int32_t slot) {
  if (!Contains(seq, slot)) return false;
  Event& ev = slab_[static_cast<std::size_t>(slot)];
  if (ev.prev >= 0 && ev.next >= 0) {
    // Mid-chain: unlink without touching the bucket at all.
    slab_[static_cast<std::size_t>(ev.prev)].next = ev.next;
    slab_[static_cast<std::size_t>(ev.next)].prev = ev.prev;
  } else {
    std::vector<Entry>& b = buckets_[BucketIndex(ev.time)];
    auto pos = std::lower_bound(
        b.begin(), b.end(), ev.time,
        [](const Entry& e, Time t) { return e.time > t; });
    OMCAST_DCHECK(pos != b.end() && pos->time == ev.time,
                  "pending event missing from its bucket");
    if (ev.prev < 0 && ev.next < 0) {
      b.erase(pos);
      TrimBucket(b);
    } else if (ev.prev < 0) {  // chain head
      pos->head = ev.next;
      slab_[static_cast<std::size_t>(ev.next)].prev = -1;
    } else {  // chain tail
      pos->tail = ev.prev;
      slab_[static_cast<std::size_t>(ev.prev)].next = -1;
    }
  }
  FreeSlot(slot);
  --live_;
  MaybeResizeAfterErase();
  return true;
}

std::size_t CalendarQueue::FindMinBucket() {
  OMCAST_DCHECK(live_ > 0, "FindMinBucket on an empty queue");
  // A calendar whose width stopped matching the live distribution walks many
  // empty days per pop; re-estimate before the walk, not during it.
  if (scan_steps_ > 32 * pops_ + 4096) Rebuild();
  const std::size_t nbuckets = bucket_mask_ + 1;
  for (std::size_t steps = 0; steps <= nbuckets; ++steps) {
    const std::vector<Entry>& b = buckets_[static_cast<std::size_t>(cur_day_) &
                                           bucket_mask_];
    if (!b.empty()) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(b.back().time * inv_width_);
      if (key <= cur_day_) return static_cast<std::size_t>(cur_day_) &
                                  bucket_mask_;
    }
    ++cur_day_;
    ++scan_steps_;
  }
  // Fruitless full year: the pending set is entirely beyond the current
  // year. Jump straight to the earliest event's day.
  Time best_time = 0.0;
  std::uint64_t best_seq = 0;
  std::size_t best_bucket = nbuckets;
  for (std::size_t i = 0; i < nbuckets; ++i) {
    if (buckets_[i].empty()) continue;
    const Entry& e = buckets_[i].back();
    // The chain head is the entry's (and therefore the bucket's) seq
    // minimum at that time.
    const std::uint64_t seq = slab_[static_cast<std::size_t>(e.head)].seq;
    if (best_bucket == nbuckets || e.time < best_time ||
        (e.time == best_time && seq < best_seq)) {
      best_time = e.time;
      best_seq = seq;
      best_bucket = i;
    }
  }
  util::Check(best_bucket < nbuckets, "live events but no occupied bucket");
  cur_day_ = static_cast<std::uint64_t>(best_time * inv_width_);
  return best_bucket;
}

Time CalendarQueue::PeekTime() {
  util::Check(live_ > 0, "PeekTime on an empty queue");
  return buckets_[FindMinBucket()].back().time;
}

void CalendarQueue::PopMin(Time* time, std::uint64_t* seq, const char** tag,
                           Callback* cb) {
  util::Check(live_ > 0, "PopMin on an empty queue");
  std::vector<Entry>& b = buckets_[FindMinBucket()];
  Entry& min_entry = b.back();
  const std::int32_t slot = min_entry.head;
  Event& ev = slab_[static_cast<std::size_t>(slot)];
  if (ev.next >= 0) {
    min_entry.head = ev.next;
    slab_[static_cast<std::size_t>(ev.next)].prev = -1;
  } else {
    b.pop_back();
    TrimBucket(b);
  }
  *time = ev.time;
  *seq = ev.seq;
  *tag = ev.tag;
  *cb = std::move(ev.cb);
  FreeSlot(slot);
  --live_;
  ++pops_;
  MaybeResizeAfterErase();
}

CalendarQueue::PoolStats CalendarQueue::pool_stats() const {
  PoolStats stats;
  stats.live = live_;
  stats.slab_capacity = slab_.size();
  stats.bucket_count = bucket_mask_ + 1;
  stats.bucket_width_s = width_;
  stats.rebuilds = rebuilds_;
  stats.bucket_bytes = bucket_slots_ * sizeof(Entry);
  return stats;
}

double CalendarQueue::EstimateWidth() const {
  if (live_ < 2) return 1.0;
  // The width must match the event spacing where dispatch actually walks:
  // the head of the pending set. A uniform sample over ALL pending times
  // lets a heavy tail -- departure timers hours out coexisting with
  // second-scale heartbeats -- dominate the gap statistics and produce a
  // width orders of magnitude too wide for the dense head, which then
  // funnels every near-term event into a few huge buckets. So: select the
  // kWidthSampleCap earliest *distinct* pending times (duplicates add no
  // positive gap; one Entry each) and take the median positive gap among
  // those (Brown 1988 likewise averages the gaps of the first events).
  // Collecting every Entry is O(entries), which the rebuild that called us
  // already pays to redistribute them.
  std::vector<Time> times;
  times.reserve(live_);
  for (const std::vector<Entry>& b : buckets_)
    for (const Entry& e : b) times.push_back(e.time);
  if (times.size() < 2) return width_;  // one instant; any width works
  const std::size_t head = std::min(times.size(), kWidthSampleCap);
  auto head_end = times.begin() + static_cast<std::ptrdiff_t>(head);
  std::nth_element(times.begin(), head_end - 1, times.end());
  std::sort(times.begin(), head_end);
  std::vector<double> gaps;
  gaps.reserve(head);
  for (std::size_t i = 1; i < head; ++i)
    if (times[i] > times[i - 1]) gaps.push_back(times[i] - times[i - 1]);
  if (gaps.empty()) return width_;  // distinct times cannot collide
  auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2);
  std::nth_element(gaps.begin(), mid, gaps.end());
  return std::clamp(3.0 * (*mid), 1e-9, 1e9);
}

void CalendarQueue::Rebuild() {
  ++rebuilds_;
  scan_steps_ = 0;
  pops_ = 0;
  shift_steps_ = 0;
  inserts_ = 0;
  const double new_width = EstimateWidth();
  const std::size_t new_count =
      std::clamp(NextPow2(live_), kMinBuckets, kMaxBuckets);
  std::vector<std::vector<Entry>> old = std::move(buckets_);
  buckets_.assign(new_count, {});
  bucket_mask_ = new_count - 1;
  width_ = new_width;
  inv_width_ = 1.0 / new_width;
  Time min_time = std::numeric_limits<Time>::infinity();
  // Entries move wholesale, chains untouched: BucketIndex is a pure
  // function of the time, so one time value lives in exactly one Entry
  // before AND after redistribution.
  for (std::vector<Entry>& b : old) {
    for (const Entry& e : b) {
      buckets_[BucketIndex(e.time)].push_back(e);
      min_time = std::min(min_time, e.time);
    }
    b.clear();
    b.shrink_to_fit();
  }
  bucket_slots_ = 0;
  for (std::vector<Entry>& b : buckets_) {
    bucket_slots_ += b.capacity();
    if (b.size() < 2) continue;
    std::sort(b.begin(), b.end(), [](const Entry& a, const Entry& c) {
      return a.time > c.time;  // times are distinct across Entries
    });
  }
  cur_day_ = live_ == 0 ? 0
                        : static_cast<std::uint64_t>(min_time * inv_width_);
}

void CalendarQueue::MaybeResizeAfterInsert() {
  if (live_ > 2 * (bucket_mask_ + 1) && bucket_mask_ + 1 < kMaxBuckets) {
    Rebuild();
    return;
  }
  // Sorted inserts are memmoving whole buckets: the width is too wide for
  // the dense part of the distribution (see shift_steps_ in the header).
  if (shift_steps_ > 16 * inserts_ + 4096) Rebuild();
}

void CalendarQueue::MaybeResizeAfterErase() {
  if (live_ < (bucket_mask_ + 1) / 4 && bucket_mask_ + 1 > kMinBuckets)
    Rebuild();
}

}  // namespace omcast::sim
