// Unit tests for the observability subsystem (src/obs): the metrics
// registry (counters / gauges / fixed-bucket histograms, cross-checked
// against util::RunningStat), the bounded trace ring and its JSONL /
// Chrome-trace exports (pinned byte for byte), and the simulator profiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace omcast {
namespace {

using obs::EventKind;
using obs::Histogram;
using obs::Registry;
using obs::TimeSeries;
using obs::TraceEvent;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, MeanMatchesRunningStat) {
  // The histogram tracks the exact sum and count alongside the buckets; its
  // sum/count mean must agree with RunningStat's Welford mean to round-off
  // (they are different summation orders of the same data), and min/max are
  // tracked exactly, so those must match bit for bit.
  Histogram h({0.1, 1.0, 10.0, 100.0});
  util::RunningStat stat;
  double v = 0.0317;
  for (int i = 0; i < 500; ++i) {
    v = v * 1.37 + 0.011;
    if (v > 250.0) v -= 249.0;
    h.Observe(v);
    stat.Add(v);
  }
  ASSERT_EQ(h.count(), static_cast<long>(stat.count()));
  EXPECT_NEAR(h.mean(), stat.mean(), 1e-9 * std::abs(stat.mean()));
  EXPECT_EQ(h.min(), stat.min());
  EXPECT_EQ(h.max(), stat.max());
}

TEST(Histogram, BucketAssignmentUsesInclusiveUpperEdges) {
  Histogram h({1.0, 2.0});
  h.Observe(1.0);  // lands in bucket 0: (-inf, 1]
  h.Observe(1.5);  // bucket 1: (1, 2]
  h.Observe(2.0);  // bucket 1
  h.Observe(3.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 1);
  EXPECT_EQ(h.bucket_counts()[1], 2);
  EXPECT_EQ(h.bucket_counts()[2], 1);
}

TEST(Histogram, QuantilesAreClampedAndOrdered) {
  Histogram h({1.0, 2.0, 4.0, 8.0, 16.0});
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i % 17) + 0.5);
  const double p10 = h.Quantile(0.10);
  const double p50 = h.Quantile(0.50);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p10, h.min());
  EXPECT_LE(p99, h.max());
}

TEST(Histogram, SingleObservationQuantileIsExact) {
  Histogram h({1.0, 10.0});
  h.Observe(3.25);
  // Only one value exists; clamping to [min, max] pins every quantile to it.
  EXPECT_EQ(h.Quantile(0.0), 3.25);
  EXPECT_EQ(h.Quantile(0.5), 3.25);
  EXPECT_EQ(h.Quantile(1.0), 3.25);
}

TEST(Histogram, EmptyHistogramIsZeroEverywhere) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(Histogram, MergeEqualsCombinedObservations) {
  const std::vector<double> bounds = {0.5, 1.0, 5.0, 25.0};
  Histogram a(bounds), b(bounds), combined(bounds);
  for (int i = 0; i < 40; ++i) {
    const double v = 0.2 * static_cast<double>(i) + 0.05;
    (i % 2 == 0 ? a : b).Observe(v);
    combined.Observe(v);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.bucket_counts(), combined.bucket_counts());
}

TEST(Histogram, MergeFromEmptyIsANoOp) {
  Histogram a({1.0}), empty({1.0});
  a.Observe(0.5);
  a.MergeFrom(empty);
  EXPECT_EQ(a.count(), 1);
  EXPECT_EQ(a.min(), 0.5);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, CountersAccumulateAndDefaultToZero) {
  Registry reg;
  EXPECT_EQ(reg.CounterValue("absent"), 0.0);
  reg.Count("x");
  reg.Count("x", 2.5);
  EXPECT_EQ(reg.CounterValue("x"), 3.5);
}

TEST(Registry, GaugesAreLastWriteWins) {
  Registry reg;
  reg.SetGauge("g", 1.0);
  reg.SetGauge("g", -4.0);
  EXPECT_EQ(reg.gauges().at("g"), -4.0);
}

TEST(Registry, FirstHistogramRegistrationWins) {
  Registry reg;
  Histogram& h = reg.Hist("h", {1.0, 2.0});
  Histogram& again = reg.Hist("h", {99.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Registry, FlattenExpandsHistogramsDeterministically) {
  Registry reg;
  reg.Count("a.count1", 7.0);
  reg.SetGauge("b.gauge", 0.25);
  reg.Observe("c.hist", {1.0, 10.0}, 2.0);
  reg.Observe("c.hist", {1.0, 10.0}, 6.0);
  const std::map<std::string, double> flat = reg.Flatten();
  EXPECT_EQ(flat.at("a.count1"), 7.0);
  EXPECT_EQ(flat.at("b.gauge"), 0.25);
  EXPECT_EQ(flat.at("c.hist.count"), 2.0);
  EXPECT_EQ(flat.at("c.hist.sum"), 8.0);
  EXPECT_EQ(flat.at("c.hist.min"), 2.0);
  EXPECT_EQ(flat.at("c.hist.max"), 6.0);
  EXPECT_TRUE(flat.contains("c.hist.p50"));
  EXPECT_TRUE(flat.contains("c.hist.p99"));
}

// ---------------------------------------------------------------------------
// TimeSeries (the recovery-curve substrate of results schema v3)
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, CounterRateSumsPerWindowAndZeroFillsGaps) {
  TimeSeries ts(TimeSeries::Kind::kCounterRate, 5.0);
  EXPECT_TRUE(ts.empty());
  ts.AddDelta(1.0, 2.0);
  ts.AddDelta(4.9, 3.0);   // same window [0, 5)
  ts.AddDelta(17.0, 1.0);  // window [15, 20); [5,10) and [10,15) untouched
  const std::vector<TimeSeries::Point> points = ts.Points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].t, 0.0);
  EXPECT_EQ(points[0].value, 5.0);
  EXPECT_EQ(points[1].t, 5.0);
  EXPECT_EQ(points[1].value, 0.0);  // untouched counter window flattens to 0
  EXPECT_EQ(points[2].value, 0.0);
  EXPECT_EQ(points[3].t, 15.0);
  EXPECT_EQ(points[3].value, 1.0);
}

TEST(TimeSeriesTest, GaugeLastSampleWinsAndCarriesForward) {
  TimeSeries ts(TimeSeries::Kind::kGauge, 2.0);
  ts.Sample(0.5, 10.0);
  ts.Sample(1.5, 12.0);  // same window: last wins
  ts.Sample(7.0, 3.0);   // window [6, 8); [2,4) and [4,6) untouched
  const std::vector<TimeSeries::Point> points = ts.Points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].value, 12.0);
  // A gauge holds its last observed level until re-sampled.
  EXPECT_EQ(points[1].value, 12.0);
  EXPECT_EQ(points[2].value, 12.0);
  EXPECT_EQ(points[3].t, 6.0);
  EXPECT_EQ(points[3].value, 3.0);
}

TEST(TimeSeriesTest, WindowGridIsAbsoluteNotRelativeToFirstSample) {
  // Two series over the same scenario must bucket identically no matter when
  // each started sampling: the grid is floor(t / window_s), not
  // sample-relative.
  TimeSeries late(TimeSeries::Kind::kGauge, 10.0);
  late.Sample(27.0, 1.0);
  const std::vector<TimeSeries::Point> points = late.Points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].t, 20.0);  // window start, not 27.0
}

TEST(TimeSeriesTest, RecordsBeforeTheFirstWindowPrependDensely) {
  TimeSeries ts(TimeSeries::Kind::kCounterRate, 1.0);
  ts.AddDelta(5.5, 1.0);
  ts.AddDelta(2.5, 4.0);  // earlier than the first touched window
  const std::vector<TimeSeries::Point> points = ts.Points();
  ASSERT_EQ(points.size(), 4u);  // windows 2, 3, 4, 5
  EXPECT_EQ(points[0].t, 2.0);
  EXPECT_EQ(points[0].value, 4.0);
  EXPECT_EQ(points[1].value, 0.0);
  EXPECT_EQ(points[3].value, 1.0);
}

TEST(TimeSeriesTest, ZeroDeltaStillMarksCoverage) {
  // A sampler that ticks every window with AddDelta(t, 0) must extend the
  // curve's range even when nothing happened, so quiet tails are explicit
  // zeros rather than missing data.
  TimeSeries ts(TimeSeries::Kind::kCounterRate, 1.0);
  ts.AddDelta(0.5, 7.0);
  ts.AddDelta(3.5, 0.0);
  const std::vector<TimeSeries::Point> points = ts.Points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[3].t, 3.0);
  EXPECT_EQ(points[3].value, 0.0);
}

TEST(TimeSeriesTest, RegistrySeriesFirstRegistrationWinsOutsideFlatten) {
  Registry a;
  TimeSeries& s = a.Series("recovery.x", TimeSeries::Kind::kGauge, 5.0);
  TimeSeries& again =
      a.Series("recovery.x", TimeSeries::Kind::kCounterRate, 99.0);
  EXPECT_EQ(&s, &again);  // first registration wins, as with Hist
  EXPECT_EQ(again.kind(), TimeSeries::Kind::kGauge);
  EXPECT_EQ(again.window_s(), 5.0);

  s.Sample(2.0, 4.0);
  ASSERT_EQ(a.series().size(), 1u);
  // Series are exported through the per-cell timeseries block, never the
  // flat registry snapshot.
  EXPECT_TRUE(a.Flatten().empty());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, IdsAreMonotonicAndEventsOldestFirst) {
  Tracer tracer(16);
  for (int i = 0; i < 5; ++i)
    tracer.Emit(static_cast<double>(i), EventKind::kJoin, i, i - 1, i * 10);
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i);
    EXPECT_EQ(events[i].t, static_cast<double>(i));
    EXPECT_EQ(events[i].subject, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(tracer.emitted(), 5u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingEvictsOldestAndCountsDrops) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i)
    tracer.Emit(static_cast<double>(i), EventKind::kLeave, i);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // The newest four survive, oldest first.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(events[i].id, 6u + i);
}

TEST(Tracer, ClearKeepsLifetimeTallies) {
  Tracer tracer(4);
  tracer.Emit(1.0, EventKind::kJoin, 1);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.emitted(), 1u);  // ids keep running across Clear()
  tracer.Emit(2.0, EventKind::kJoin, 2);
  EXPECT_EQ(tracer.Events().front().id, 1u);
}

TEST(Tracer, JsonlWritesOneLinePerEvent) {
  Tracer tracer(8);
  tracer.Emit(12.5, EventKind::kLockGrant, 17, 4, 2);
  tracer.Emit(13.0, EventKind::kSwitchCommit, 4, 17);
  EXPECT_EQ(tracer.ToJsonl(),
            "{\"t\":12.5,\"id\":0,\"kind\":\"lock_grant\",\"subject\":17,"
            "\"peer\":4,\"detail\":2}\n"
            "{\"t\":13,\"id\":1,\"kind\":\"switch_commit\",\"subject\":4,"
            "\"peer\":17,\"detail\":0}\n");
}

TEST(Tracer, ChromeTraceIsValidJsonWithOneEntryPerEvent) {
  Tracer tracer(8);
  tracer.Emit(0.5, EventKind::kEln, 3, -1, 7);
  tracer.Emit(1.5, EventKind::kRepairStart, 9, 3, 1);
  // One instant event per emission, one track (tid) per subject; sim
  // seconds surface as trace microseconds, in the shortest form to_chars
  // finds (5e+05 is a valid JSON number).
  EXPECT_EQ(tracer.ToChromeTrace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"eln\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":3,"
            "\"ts\":5e+05,\"args\":{\"id\":0,\"peer\":-1,\"detail\":7}},\n"
            "{\"name\":\"repair_start\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
            "\"tid\":9,\"ts\":1500000,\"args\":{\"id\":1,\"peer\":3,"
            "\"detail\":1}}\n"
            "]}\n");
}

TEST(Tracer, DigestIsOrderAndContentSensitive) {
  Tracer a(8), b(8), c(8);
  a.Emit(1.0, EventKind::kJoin, 1, 0);
  a.Emit(2.0, EventKind::kLeave, 1, 0);
  b.Emit(1.0, EventKind::kJoin, 1, 0);
  b.Emit(2.0, EventKind::kLeave, 1, 0);
  c.Emit(2.0, EventKind::kLeave, 1, 0);
  c.Emit(1.0, EventKind::kJoin, 1, 0);
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_NE(a.Digest(), c.Digest());
}

TEST(Tracer, EveryKindHasAStableSnakeCaseName) {
  // The names are schema (scripts/trace_schema.json pins them); walk the
  // full enum and require lowercase snake_case, nonempty, and unique.
  std::vector<std::string> names;
  for (int k = static_cast<int>(EventKind::kJoin);
       k <= static_cast<int>(EventKind::kOrphaned); ++k) {
    const std::string name = obs::EventKindName(static_cast<EventKind>(k));
    ASSERT_FALSE(name.empty()) << "kind " << k;
    for (const char ch : name)
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_')
          << "kind " << k << " name '" << name << "'";
    names.push_back(name);
  }
  EXPECT_EQ(names.size(), 34u);
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate event kind names";
}

// ---------------------------------------------------------------------------
// TraceSink / JsonlStreamSink (the streaming export path)
// ---------------------------------------------------------------------------

struct CollectingSink : obs::TraceSink {
  std::vector<TraceEvent> seen;
  void OnEvent(const TraceEvent& ev) override { seen.push_back(ev); }
};

TEST(TraceSink, SeesEveryEmissionBeforeRingEviction) {
  Tracer tracer(2);
  CollectingSink sink;
  tracer.AddSink(&sink);
  for (int i = 0; i < 5; ++i)
    tracer.Emit(static_cast<double>(i), EventKind::kJoin, i, i - 1);
  // The ring kept only the newest two and evicted three...
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  // ...but the sink observed all five, in emission order with final ids.
  ASSERT_EQ(sink.seen.size(), 5u);
  for (std::size_t i = 0; i < sink.seen.size(); ++i) {
    EXPECT_EQ(sink.seen[i].id, i);
    EXPECT_EQ(sink.seen[i].subject, static_cast<std::int64_t>(i));
  }
}

TEST(TraceSink, RemoveSinkStopsDelivery) {
  Tracer tracer(8);
  CollectingSink a, b;
  tracer.AddSink(&a);
  tracer.AddSink(&b);
  tracer.Emit(1.0, EventKind::kJoin, 1);
  tracer.RemoveSink(&a);
  tracer.Emit(2.0, EventKind::kLeave, 1);
  EXPECT_EQ(a.seen.size(), 1u);
  ASSERT_EQ(b.seen.size(), 2u);
  EXPECT_EQ(b.seen[1].kind, EventKind::kLeave);
}

TEST(JsonlStreamSink, StreamsBytesIdenticalToTheRingSnapshot) {
  // With a ring large enough to retain everything, the streaming export and
  // the snapshot export must agree byte for byte -- same AppendEventJsonl
  // under both, which is what makes --trace-stream artifacts diffable
  // against in-memory exports.
  Tracer tracer(64);
  std::ostringstream stream;
  obs::JsonlStreamSink sink(stream);
  tracer.AddSink(&sink);
  tracer.Emit(12.5, EventKind::kLockGrant, 17, 4, 2);
  tracer.Emit(13.0, EventKind::kOrphaned, 9, 17, 1);
  tracer.Emit(14.25, EventKind::kRejoin, 9, 3);
  EXPECT_EQ(stream.str(), tracer.ToJsonl());
  EXPECT_EQ(sink.events_written(), 3u);
}

TEST(JsonlStreamSink, OutlivesTheRingsEvictionHorizon) {
  Tracer tracer(2);
  std::ostringstream stream;
  obs::JsonlStreamSink sink(stream);
  tracer.AddSink(&sink);
  for (int i = 0; i < 6; ++i)
    tracer.Emit(static_cast<double>(i), EventKind::kGossipRound, i, -1, i);
  EXPECT_EQ(sink.events_written(), 6u);
  // The stream kept every line, including the ids the ring has lost.
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(stream.str(),
            "{\"t\":0,\"id\":0,\"kind\":\"gossip_round\",\"subject\":0,"
            "\"peer\":-1,\"detail\":0}\n"
            "{\"t\":1,\"id\":1,\"kind\":\"gossip_round\",\"subject\":1,"
            "\"peer\":-1,\"detail\":1}\n"
            "{\"t\":2,\"id\":2,\"kind\":\"gossip_round\",\"subject\":2,"
            "\"peer\":-1,\"detail\":2}\n"
            "{\"t\":3,\"id\":3,\"kind\":\"gossip_round\",\"subject\":3,"
            "\"peer\":-1,\"detail\":3}\n"
            "{\"t\":4,\"id\":4,\"kind\":\"gossip_round\",\"subject\":4,"
            "\"peer\":-1,\"detail\":4}\n"
            "{\"t\":5,\"id\":5,\"kind\":\"gossip_round\",\"subject\":5,"
            "\"peer\":-1,\"detail\":5}\n");
}

// ---------------------------------------------------------------------------
// SimProfiler + simulator integration
// ---------------------------------------------------------------------------

TEST(SimProfiler, CountsDispatchesPerTag) {
  obs::SimProfiler profiler;
  sim::Simulator simulator;
  simulator.SetProfiler(&profiler);
  for (int i = 0; i < 3; ++i)
    simulator.ScheduleAt(static_cast<double>(i), [] {}, "test.a");
  simulator.ScheduleAt(5.0, [] {}, "test.b");
  simulator.ScheduleAt(6.0, [] {});  // untagged
  simulator.Run();
  EXPECT_EQ(profiler.events(), 5u);
  ASSERT_TRUE(profiler.per_tag().contains("test.a"));
  EXPECT_EQ(profiler.per_tag().at("test.a").count, 3u);
  EXPECT_EQ(profiler.per_tag().at("test.b").count, 1u);
  EXPECT_EQ(profiler.per_tag().at("untagged").count, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(profiler.wall_us_hist().count()), 5u);
  EXPECT_EQ(static_cast<std::uint64_t>(profiler.queue_depth_hist().count()),
            5u);
  const std::string table = profiler.FormatTable();
  EXPECT_NE(table.find("test.a"), std::string::npos);
}

TEST(SimProfiler, LoopBracketsDriveEventsPerSec) {
  obs::SimProfiler profiler;
  EXPECT_EQ(profiler.events_per_sec(), 0.0);  // no loop yet
  sim::Simulator simulator;
  simulator.SetProfiler(&profiler);
  for (int i = 0; i < 100; ++i)
    simulator.ScheduleAt(static_cast<double>(i), [] {}, "test.loop");
  simulator.Run();
  EXPECT_EQ(profiler.loop_events(), 100u);
  EXPECT_GT(profiler.loop_us(), 0.0);
  EXPECT_GT(profiler.events_per_sec(), 0.0);
  // The loop bracket includes queue pops, so it can only be wider than the
  // sum of the per-callback brackets.
  double callback_us = 0.0;
  for (const auto& [tag, stats] : profiler.per_tag())
    callback_us += stats.total_us;
  EXPECT_GE(profiler.loop_us(), callback_us);
}

TEST(SimProfiler, SampleMemoryKeepsHighWaterMarks) {
  obs::SimProfiler profiler;
  profiler.SampleMemory(10, 64);
  profiler.SampleMemory(50, 128);
  profiler.SampleMemory(3, 16);  // below the marks: must not lower them
  EXPECT_EQ(profiler.pool_live_max(), 50u);
  EXPECT_EQ(profiler.pool_capacity_max(), 128u);
  // getrusage-backed peak RSS: any live process has resident pages.
  EXPECT_GT(profiler.peak_rss_bytes(), 0u);
}

TEST(SimProfiler, RunLoopSamplesPoolOccupancy) {
  obs::SimProfiler profiler;
  sim::Simulator simulator;
  simulator.SetProfiler(&profiler);
  // A standing population of far-future timers keeps the pool occupied
  // through the end-of-loop sample.
  for (int i = 0; i < 500; ++i)
    simulator.ScheduleAt(1000.0 + i, [] {}, "test.standing");
  simulator.ScheduleAt(1.0, [] {}, "test.near");
  simulator.RunUntil(2.0);
  EXPECT_GE(profiler.pool_live_max(), 500u);
  EXPECT_GE(profiler.pool_capacity_max(), profiler.pool_live_max());
  EXPECT_GT(profiler.peak_rss_bytes(), 0u);
}

TEST(SimProfiler, MergeFromFoldsCells) {
  obs::SimProfiler a, b;
  sim::Simulator sa, sb;
  sa.SetProfiler(&a);
  sb.SetProfiler(&b);
  sa.ScheduleAt(0.0, [] {}, "cell.work");
  sb.ScheduleAt(0.0, [] {}, "cell.work");
  sb.ScheduleAt(1.0, [] {}, "cell.other");
  sa.Run();
  sb.Run();
  obs::SimProfiler merged = a;
  merged.MergeFrom(b);
  // Counts and times add, maxima take the max, histograms merge.
  EXPECT_EQ(merged.events(), 3u);
  EXPECT_EQ(merged.loop_events(), 3u);
  EXPECT_DOUBLE_EQ(merged.loop_us(), a.loop_us() + b.loop_us());
  const obs::SimProfiler::TagStats& work = merged.per_tag().at("cell.work");
  EXPECT_EQ(work.count, 2u);
  EXPECT_DOUBLE_EQ(work.total_us, a.per_tag().at("cell.work").total_us +
                                      b.per_tag().at("cell.work").total_us);
  EXPECT_DOUBLE_EQ(work.max_us, std::max(a.per_tag().at("cell.work").max_us,
                                         b.per_tag().at("cell.work").max_us));
  EXPECT_EQ(merged.per_tag().at("cell.other").count, 1u);
  EXPECT_EQ(merged.wall_us_hist().count(), 3);
  EXPECT_EQ(merged.queue_depth_hist().count(), 3);
  EXPECT_EQ(merged.queue_depth_hist().max(),
            std::max(a.queue_depth_hist().max(), b.queue_depth_hist().max()));
  EXPECT_EQ(merged.pool_capacity_max(),
            std::max(a.pool_capacity_max(), b.pool_capacity_max()));
  const std::string table = merged.FormatTable();
  EXPECT_NE(table.find("(2 runs merged)"), std::string::npos) << table;
  EXPECT_NE(table.find("cell.work"), std::string::npos);
  EXPECT_NE(table.find("cell.other"), std::string::npos);
}

}  // namespace
}  // namespace omcast
