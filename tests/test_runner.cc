// Unit tests for the experiment-orchestration engine (src/runner): the
// hash-based per-cell seed derivation, RunGrid's cell cursor (every cell
// runs exactly once, and on a helper thread, whatever the thread count; a
// blocked cell does not strand the rest; the lowest-index cell exception
// is rethrown after every cell has run), serial-vs-parallel grid
// determinism on synthetic cells, and CI aggregation math against
// util::RunningStat.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "rand/rng.h"
#include "runner/results.h"
#include "runner/runner.h"
#include "util/stats.h"

namespace omcast {
namespace {

// ---------------------------------------------------------------------------
// CellSeed
// ---------------------------------------------------------------------------

TEST(CellSeed, DependsOnEveryCoordinate) {
  const std::uint64_t base = runner::CellSeed(1, "fig", "2000", "ROST", 0);
  EXPECT_EQ(base, runner::CellSeed(1, "fig", "2000", "ROST", 0));
  EXPECT_NE(base, runner::CellSeed(2, "fig", "2000", "ROST", 0));
  EXPECT_NE(base, runner::CellSeed(1, "gif", "2000", "ROST", 0));
  EXPECT_NE(base, runner::CellSeed(1, "fig", "5000", "ROST", 0));
  EXPECT_NE(base, runner::CellSeed(1, "fig", "2000", "min-depth", 0));
  EXPECT_NE(base, runner::CellSeed(1, "fig", "2000", "ROST", 1));
}

TEST(CellSeed, LengthPrefixingPreventsLabelGluingCollisions) {
  EXPECT_NE(runner::CellSeed(1, "f", "ab", "c", 0),
            runner::CellSeed(1, "f", "a", "bc", 0));
  EXPECT_NE(runner::CellSeed(1, "fa", "b", "c", 0),
            runner::CellSeed(1, "f", "ab", "c", 0));
}

TEST(CellSeed, ConsecutiveRepsAreNotConsecutiveSeeds) {
  // The whole point over `seed + rep`: neighbouring cells must not sit on
  // trivially related random streams.
  const std::uint64_t s0 = runner::CellSeed(1, "fig", "2000", "ROST", 0);
  const std::uint64_t s1 = runner::CellSeed(1, "fig", "2000", "ROST", 1);
  EXPECT_NE(s1, s0 + 1);
}

// ---------------------------------------------------------------------------
// RunGrid
// ---------------------------------------------------------------------------

// A synthetic cell: burns a seeded RNG so results depend only on the seed.
runner::CellResult SyntheticCell(const runner::CellContext& ctx) {
  rnd::Rng rng(ctx.seed);
  runner::CellResult out;
  out.metrics["value"] = rng.Uniform(0.0, 1.0);
  out.metrics["count"] = static_cast<double>(rng.UniformInt(0, 1000));
  out.samples["draws"] = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
  out.series["walk"] = {{0.0, rng.Uniform(0.0, 1.0)},
                        {1.0, rng.Uniform(0.0, 1.0)}};
  return out;
}

runner::GridSpec SyntheticSpec(int reps = 3) {
  runner::GridSpec spec;
  spec.figure = "test_grid";
  spec.title = "synthetic";
  spec.row_header = "x";
  spec.rows = {"10", "20", "30"};
  spec.cols = {"alpha", "beta"};
  spec.reps = reps;
  spec.headline_metric = "value";
  spec.run = SyntheticCell;
  return spec;
}

TEST(RunGrid, OutcomesAreInGridOrderWithDerivedSeeds) {
  runner::RunnerOptions options;
  options.threads = 2;
  options.base_seed = 7;
  const runner::GridRunSummary summary =
      runner::RunGrid(SyntheticSpec(2), options);
  ASSERT_EQ(summary.cells.size(), 3u * 2u * 2u);
  std::size_t index = 0;
  for (const char* row : {"10", "20", "30"}) {
    for (const char* col : {"alpha", "beta"}) {
      for (int rep = 0; rep < 2; ++rep, ++index) {
        const runner::CellContext& ctx = summary.cells[index].ctx;
        EXPECT_EQ(ctx.row_label, row);
        EXPECT_EQ(ctx.col_label, col);
        EXPECT_EQ(ctx.rep, rep);
        EXPECT_EQ(ctx.index, index);
        EXPECT_EQ(ctx.seed,
                  runner::CellSeed(7, "test_grid", row, col, rep));
      }
    }
  }
}

TEST(RunGrid, SerialAndParallelRunsAreBitIdentical) {
  runner::RunnerOptions serial;
  serial.threads = 1;
  runner::RunnerOptions parallel;
  parallel.threads = 4;
  const auto a = runner::RunGrid(SyntheticSpec(), serial);
  const auto b = runner::RunGrid(SyntheticSpec(), parallel);
  EXPECT_EQ(runner::DigestOutcomes(a.cells), runner::DigestOutcomes(b.cells));
}

TEST(RunGrid, CellExceptionPropagatesToTheCaller) {
  runner::GridSpec spec = SyntheticSpec(1);
  spec.run = [](const runner::CellContext& ctx) -> runner::CellResult {
    if (ctx.row_label == "20") throw std::runtime_error("cell failed");
    return runner::CellResult{};
  };
  runner::RunnerOptions options;
  options.threads = 2;
  EXPECT_THROW(runner::RunGrid(spec, options), std::runtime_error);
}

TEST(RunGrid, RethrowsTheLowestIndexCellExceptionAfterRunningEveryCell) {
  runner::GridSpec spec = SyntheticSpec(3);  // 18 cells
  std::atomic<int> ran{0};
  // The cursor claims from the back, so cell 13 fails before cell 7 does;
  // the rethrown exception must not depend on that order.
  spec.run = [&ran](const runner::CellContext& ctx) -> runner::CellResult {
    ran.fetch_add(1);
    if (ctx.index == 7 || ctx.index == 13)
      throw std::runtime_error("boom" + std::to_string(ctx.index));
    return runner::CellResult{};
  };
  runner::RunnerOptions options;
  options.threads = 4;
  try {
    runner::RunGrid(spec, options);
    FAIL() << "RunGrid swallowed the cell exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom7");
  }
  EXPECT_EQ(ran.load(), 18) << "a failing cell stopped the others";
}

TEST(RunGrid, ZeroThreadsSelectsHardwareConcurrency) {
  runner::RunnerOptions options;
  options.threads = 0;
  const runner::GridRunSummary summary =
      runner::RunGrid(SyntheticSpec(3), options);
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(summary.threads, std::min(hardware, 18));
}

TEST(RunGrid, NoCellRunsOnTheCallingThread) {
  // The caller only joins: even at one thread, a helper runs every cell,
  // so no cell allocates from the calling thread's heap.
  for (const int threads : {1, 4}) {
    runner::GridSpec spec = SyntheticSpec(2);  // 12 cells
    std::vector<std::thread::id> ran_on(spec.cell_count());
    spec.run = [&ran_on](const runner::CellContext& ctx) {
      ran_on[ctx.index] = std::this_thread::get_id();
      return runner::CellResult{};
    };
    runner::RunnerOptions options;
    options.threads = threads;
    const runner::GridRunSummary summary = runner::RunGrid(spec, options);
    EXPECT_EQ(summary.threads, threads);
    for (std::size_t i = 0; i < ran_on.size(); ++i)
      EXPECT_NE(ran_on[i], std::this_thread::get_id())
          << "cell " << i << " ran on the calling thread at threads="
          << threads;
    const std::set<std::thread::id> helpers(ran_on.begin(), ran_on.end());
    EXPECT_LE(helpers.size(), static_cast<std::size_t>(threads));
    EXPECT_EQ(helpers.count(std::thread::id{}), 0u) << "a cell never ran";
  }
}

TEST(RunGrid, MoreThreadsThanCellsRunsEachCellOnce) {
  runner::GridSpec spec = SyntheticSpec(1);  // 6 cells
  std::array<std::atomic<int>, 6> runs{};
  spec.run = [&runs](const runner::CellContext& ctx) {
    runs[ctx.index].fetch_add(1);
    return runner::CellResult{};
  };
  runner::RunnerOptions options;
  options.threads = 16;
  const runner::GridRunSummary summary = runner::RunGrid(spec, options);
  EXPECT_EQ(summary.threads, 6) << "one thread per cell at most";
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].load(), 1) << "cell " << i;
}

TEST(RunGrid, ABlockedCellDoesNotStrandTheRest) {
  // The first cell to start waits until every other cell has finished. A
  // static split of the cells over the two threads would leave the rest of
  // the blocked thread's share unrun and time out; with the cursor the
  // other thread claims every remaining cell.
  runner::GridSpec spec = SyntheticSpec(2);  // 12 cells
  const int others = static_cast<int>(spec.cell_count()) - 1;
  std::atomic<bool> started{false};
  std::atomic<int> finished{0};
  std::atomic<bool> saw_all{false};
  spec.run = [&](const runner::CellContext&) {
    if (!started.exchange(true)) {
      // Gives up after about a minute.
      for (int waits = 0; finished.load() < others && waits < 60000; ++waits)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      saw_all = finished.load() == others;
    } else {
      finished.fetch_add(1);
    }
    return runner::CellResult{};
  };
  runner::RunnerOptions options;
  options.threads = 2;
  runner::RunGrid(spec, options);
  EXPECT_TRUE(saw_all.load()) << "the blocked cell stranded "
                              << others - finished.load() << " cells";
}

// ---------------------------------------------------------------------------
// ResultsSink aggregation
// ---------------------------------------------------------------------------

runner::RunInfo TestRunInfo() {
  runner::RunInfo info;
  info.scale = "test";
  info.git_sha = "deadbeef";
  info.base_seed = 1;
  return info;
}

TEST(ResultsSink, AggregationMatchesRunningStatOnKnownInputs) {
  runner::GridSpec spec = SyntheticSpec(4);
  // Deterministic, hand-checkable values: metric = f(row, col, rep).
  spec.run = [](const runner::CellContext& ctx) {
    runner::CellResult out;
    out.metrics["value"] = static_cast<double>(ctx.row) * 10.0 +
                           static_cast<double>(ctx.col) +
                           static_cast<double>(ctx.rep) * 0.25;
    return out;
  };
  runner::RunnerOptions options;
  options.threads = 3;
  const runner::ResultsSink sink(spec, TestRunInfo(),
                                 runner::RunGrid(spec, options));
  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    for (std::size_t col = 0; col < spec.cols.size(); ++col) {
      util::RunningStat expected;
      for (int rep = 0; rep < 4; ++rep)
        expected.Add(static_cast<double>(row) * 10.0 +
                     static_cast<double>(col) +
                     static_cast<double>(rep) * 0.25);
      const util::RunningStat got = sink.Stat(row, col, "value");
      EXPECT_EQ(got.count(), expected.count());
      EXPECT_DOUBLE_EQ(got.mean(), expected.mean());
      EXPECT_DOUBLE_EQ(got.stddev(), expected.stddev());
      EXPECT_DOUBLE_EQ(got.ci95_half_width(), expected.ci95_half_width());
    }
  }
  // The JSON aggregates carry the same numbers: the (20, beta, value)
  // record, written with shortest round-trip doubles.
  const util::RunningStat stat = sink.Stat(1, 1, "value");
  std::string record =
      "{\"row\":\"20\",\"col\":\"beta\",\"metric\":\"value\",\"n\":4";
  const std::pair<const char*, double> fields[] = {
      {"mean", stat.mean()}, {"stddev", stat.stddev()},
      {"ci95", stat.ci95_half_width()}, {"min", stat.min()},
      {"max", stat.max()}};
  for (const auto& [name, value] : fields) {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    ASSERT_EQ(ec, std::errc());
    record += std::string(",\"") + name + "\":" + std::string(buf, ptr);
  }
  record += "}";
  EXPECT_NE(sink.ToJson().Dump().find(record), std::string::npos) << record;
}

TEST(ResultsSink, PooledSamplesConcatenateInRepOrder) {
  runner::GridSpec spec = SyntheticSpec(3);
  spec.run = [](const runner::CellContext& ctx) {
    runner::CellResult out;
    out.samples["s"] = {static_cast<double>(ctx.rep),
                        static_cast<double>(ctx.rep) + 0.5};
    return out;
  };
  runner::RunnerOptions options;
  options.threads = 2;
  const runner::ResultsSink sink(spec, TestRunInfo(),
                                 runner::RunGrid(spec, options));
  const std::vector<double> pooled = sink.PooledSamples(0, 0, "s");
  EXPECT_EQ(pooled, (std::vector<double>{0.0, 0.5, 1.0, 1.5, 2.0, 2.5}));
}

TEST(ResultsSink, MissingMetricShrinksN) {
  runner::GridSpec spec = SyntheticSpec(3);
  spec.run = [](const runner::CellContext& ctx) {
    runner::CellResult out;
    if (ctx.rep != 1) out.metrics["sometimes"] = 1.0;
    return out;
  };
  runner::RunnerOptions options;
  options.threads = 1;
  const runner::ResultsSink sink(spec, TestRunInfo(),
                                 runner::RunGrid(spec, options));
  EXPECT_EQ(sink.Stat(0, 0, "sometimes").count(), 2u);
  EXPECT_EQ(sink.Stat(0, 0, "absent").count(), 0u);
}

}  // namespace
}  // namespace omcast
