// The experiment grid model: a figure is a 3-dimensional grid of
// independent cells (row x column x repetition), where rows are the x-axis
// points (network sizes, buffer seconds, scheme labels, ...), columns are
// the plotted curves (algorithms, group sizes, ...), and repetitions are
// independent seeded replicas averaged into mean / stddev / 95% CI.
//
// Determinism contract: a cell's seed is derived by hashing
// (base_seed, figure, row label, column label, rep) -- never `seed + i` --
// so the seed depends only on the cell's *identity*. Reordering the grid,
// changing the thread count, or running two figures in one process cannot
// shift any cell onto a different random stream, which is what makes
// serial and parallel runs bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace omcast::runner {

// Everything a cell computes. Scalar metrics feed the aggregation
// (mean/stddev/CI over reps); samples are pooled across reps for CDFs
// (Fig. 5); series are (t, v) time curves for the member traces
// (Figs. 6, 9). std::map keeps iteration -- and therefore JSON output and
// digests -- deterministic.
struct CellResult {
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<std::pair<double, double>>> series;
  // Flattened obs::Registry snapshot for the cell (counter/gauge/histogram
  // exports, e.g. "rost.switches"). Unlike `metrics`, these are raw
  // protocol tallies -- recorded per cell, not aggregated across reps.
  std::map<std::string, double> registry;

  // One flattened obs::TimeSeries: a windowed recovery curve on the
  // absolute sim-time grid. `kind` is obs::TimeSeries::Kind as an int (0
  // counter-rate, 1 gauge) -- kept numeric so grid.h stays obs-free;
  // points are (window start, value), dense over the covered range.
  struct SeriesSnapshot {
    int kind = 0;
    double window_s = 0.0;
    std::vector<std::pair<double, double>> points;
  };
  // Schema v3 "timeseries" block: per-cell recovery curves (e.g.
  // "chaos.unrooted_members"). Deterministic like everything else here.
  std::map<std::string, SeriesSnapshot> timeseries;
  // Schema v3 "incidents" block: per-disruption lifecycle stats
  // (obs::IncidentLog::FlatStats) -- counts plus per-phase latency
  // percentiles.
  std::map<std::string, double> incidents;
};

// Identity and derived seed of one cell, handed to the cell function.
struct CellContext {
  std::string figure;
  std::string row_label;
  std::string col_label;
  std::size_t row = 0;  // index into GridSpec::rows
  std::size_t col = 0;  // index into GridSpec::cols
  int rep = 0;
  std::size_t index = 0;  // position in grid order (GridRunSummary::cells)
  std::uint64_t seed = 0;  // derived via CellSeed()
};

// One executed cell.
struct CellOutcome {
  CellContext ctx;
  CellResult result;
  double wall_ms = 0.0;  // host wall-clock; excluded from digests
};

// A declarative figure grid. The cell function must be thread-safe with
// respect to its captures: everything it shares (the topology, the spec)
// is read-only; everything it mutates (Simulator, Session, Rng) it must
// create locally from ctx.seed.
struct GridSpec {
  std::string figure;            // machine name, e.g. "fig04_disruptions"
  std::string title;             // human title for tables/logs
  std::string row_header;        // first table column, e.g. "size"
  std::vector<std::string> rows;
  std::vector<std::string> cols;
  int reps = 1;
  // Metric the bench trajectory tracks for this figure: written to the
  // results file, where scripts/check_bench_regression.py reads it.
  std::string headline_metric;
  std::function<CellResult(const CellContext&)> run;

  std::size_t cell_count() const {
    return rows.size() * cols.size() * static_cast<std::size_t>(reps);
  }
};

// Hash-based per-cell seed derivation (the satellite replacing `seed + rep`):
// order-sensitive FNV-1a over the full cell identity. Labels are hashed as
// length-prefixed bytes so ("ab","c") and ("a","bc") cannot collide.
inline std::uint64_t CellSeed(std::uint64_t base_seed, std::string_view figure,
                              std::string_view row_label,
                              std::string_view col_label, int rep) {
  util::RollingHash h;
  h.MixU64(base_seed);
  h.MixU64(figure.size());
  h.MixBytes(figure);
  h.MixU64(row_label.size());
  h.MixBytes(row_label);
  h.MixU64(col_label.size());
  h.MixBytes(col_label);
  h.MixI64(rep);
  return h.digest();
}

}  // namespace omcast::runner
