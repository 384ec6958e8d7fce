#include "runner/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>  // omcast-lint: allow(wallclock)
#include <cstddef>
#include <cstdio>
#include <exception>
#include <thread>

#include "util/check.h"

namespace omcast::runner {

namespace {

// Host wall clock for progress/ETA and the per-cell wall_ms manifest field.
// Never feeds a simulation decision or a digest: simulation time is
// sim::Simulator::now(), and DigestOutcomes skips wall_ms.
double WallMs() {
  using clock = std::chrono::steady_clock;  // omcast-lint: allow(wallclock)
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double, std::milli>(clock::now() - origin)
      .count();
}

}  // namespace

GridRunSummary RunGrid(const GridSpec& spec, const RunnerOptions& options) {
  util::Check(spec.run != nullptr, "RunGrid: spec.run must be set");
  util::Check(spec.reps >= 1, "RunGrid: reps >= 1");
  util::Check(!spec.rows.empty() && !spec.cols.empty(),
              "RunGrid: empty grid axis");

  GridRunSummary summary;
  summary.cells.resize(spec.cell_count());

  // Build every cell's identity up front, in grid order.
  std::size_t index = 0;
  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    for (std::size_t col = 0; col < spec.cols.size(); ++col) {
      for (int rep = 0; rep < spec.reps; ++rep, ++index) {
        CellContext& ctx = summary.cells[index].ctx;
        ctx.figure = spec.figure;
        ctx.row_label = spec.rows[row];
        ctx.col_label = spec.cols[col];
        ctx.row = row;
        ctx.col = col;
        ctx.rep = rep;
        ctx.index = index;
        ctx.seed = CellSeed(options.base_seed, spec.figure, ctx.row_label,
                            ctx.col_label, rep);
      }
    }
  }

  const double t0 = WallMs();
  const std::size_t total = summary.cells.size();
  const std::size_t width =
      options.threads > 0 ? static_cast<std::size_t>(options.threads)
                          : std::max(1u, std::thread::hardware_concurrency());
  summary.threads = static_cast<int>(std::min(width, total));

  // The cell cursor: each claim takes the next cell from the back.
  std::atomic<std::ptrdiff_t> cursor{static_cast<std::ptrdiff_t>(total)};
  std::atomic<std::size_t> completed{0};
  std::vector<std::exception_ptr> errors(total);
  const auto work = [&] {
    while (true) {
      const std::ptrdiff_t k = cursor.fetch_sub(1) - 1;
      if (k < 0) return;
      const auto claimed = static_cast<std::size_t>(k);
      CellOutcome& cell = summary.cells[claimed];
      const double cell_t0 = WallMs();
      try {
        cell.result = spec.run(cell.ctx);
      } catch (...) {
        errors[claimed] = std::current_exception();
      }
      cell.wall_ms = WallMs() - cell_t0;
      if (!options.progress) continue;
      const std::size_t done = completed.fetch_add(1) + 1;
      const double elapsed_s = (WallMs() - t0) / 1000.0;
      const double eta_s = elapsed_s / static_cast<double>(done) *
                           static_cast<double>(total - done);
      std::fprintf(stderr,
                   "[%s] %zu/%zu cells (%s/%s rep %d) %.1fs elapsed, "
                   "eta %.0fs\n",
                   spec.figure.c_str(), done, total,
                   cell.ctx.row_label.c_str(), cell.ctx.col_label.c_str(),
                   cell.ctx.rep, elapsed_s, eta_s);
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (int t = 0; t < summary.threads; ++t) helpers.emplace_back(work);
  }  // joins the helpers
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);

  summary.wall_ms = WallMs() - t0;
  return summary;
}

std::uint64_t DigestOutcomes(const std::vector<CellOutcome>& cells) {
  util::RollingHash h;
  for (const CellOutcome& cell : cells) {
    h.MixU64(cell.ctx.figure.size());
    h.MixBytes(cell.ctx.figure);
    h.MixU64(cell.ctx.row_label.size());
    h.MixBytes(cell.ctx.row_label);
    h.MixU64(cell.ctx.col_label.size());
    h.MixBytes(cell.ctx.col_label);
    h.MixI64(cell.ctx.rep);
    h.MixU64(cell.ctx.seed);
    for (const auto& [name, value] : cell.result.metrics) {
      h.MixBytes(name);
      h.MixDouble(value);
    }
    for (const auto& [name, values] : cell.result.samples) {
      h.MixBytes(name);
      h.MixU64(values.size());
      for (const double v : values) h.MixDouble(v);
    }
    for (const auto& [name, points] : cell.result.series) {
      h.MixBytes(name);
      h.MixU64(points.size());
      for (const auto& [t, v] : points) {
        h.MixDouble(t);
        h.MixDouble(v);
      }
    }
    for (const auto& [name, value] : cell.result.registry) {
      h.MixBytes(name);
      h.MixDouble(value);
    }
    for (const auto& [name, snap] : cell.result.timeseries) {
      h.MixBytes(name);
      h.MixI64(snap.kind);
      h.MixDouble(snap.window_s);
      h.MixU64(snap.points.size());
      for (const auto& [t, v] : snap.points) {
        h.MixDouble(t);
        h.MixDouble(v);
      }
    }
    for (const auto& [name, value] : cell.result.incidents) {
      h.MixBytes(name);
      h.MixDouble(value);
    }
  }
  return h.digest();
}

}  // namespace omcast::runner
