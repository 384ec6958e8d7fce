// Structured results for a figure grid: per-cell records plus
// mean/stddev/95%-CI aggregates, emitted as both the existing aligned text
// tables (via util::Table helpers in bench_common.h) and a versioned JSON
// document under results/, which doubles as the run manifest (seed, scale,
// reps, git SHA, wall-clock per cell). The program only writes it; the
// validators and summarizers under scripts/ are its readers.
//
// JSON schema, version 4 (`"kind": "omcast-figure-results"`):
//   {
//     "schema_version": 4, "kind": "omcast-figure-results",
//     "figure": "fig04_disruptions", "title": "...",
//     "scale": "small", "git_sha": "...", "base_seed": 1,
//     "reps": 3, "threads": 8, "warmup_s": 5400, "measure_s": 3600,
//     "row_header": "size", "rows": [...], "cols": [...],
//     "headline_metric": "disruptions",
//     "wall_ms_total": ...,
//     "cells": [ {"row": "...", "col": "...", "rep": 0, "seed": ...,
//                 "wall_ms": ..., "metrics": {...},
//                 "samples": {...}, "series": {"name": [[t, v], ...]},
//                 "registry": {"rost.switches": ..., ...},
//                 "timeseries": {"chaos.unrooted_members":
//                     {"kind": 1, "window_s": 5, "points": [[t, v], ...]}},
//                 "incidents": {"incident.count": ...,
//                               "incident.phase.reattach.p99_s": ...}} ],
//     "aggregates": [ {"row": "...", "col": "...", "metric": "...",
//                      "n": 3, "mean": ..., "stddev": ..., "ci95": ...,
//                      "min": ..., "max": ...} ]
//   }
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/grid.h"
#include "runner/json.h"
#include "runner/runner.h"
#include "util/stats.h"

namespace omcast::runner {

// v1 -> v2: cells gained an optional "registry" object (flattened
// obs::Registry snapshot).
// v2 -> v3: cells gained optional "timeseries" (windowed recovery curves:
// kind, window_s, dense [t, v] points) and "incidents" (per-disruption
// lifecycle stats) objects.
// v3 -> v4: the document's "executed" and "resumed" counts and each cell's
// "resumed" flag went with the --resume mode, the one reader of results
// files in the program.
inline constexpr int kResultsSchemaVersion = 4;
inline constexpr const char* kResultsKind = "omcast-figure-results";

// Run-level manifest fields recorded alongside the grid results.
struct RunInfo {
  std::string scale;    // "small" | "paper" | test label
  std::string git_sha;  // from $OMCAST_GIT_SHA; "unknown" if unset
  std::uint64_t base_seed = 1;
  double warmup_s = 0.0;
  double measure_s = 0.0;
};

// Aggregation over the outcomes of one grid run.
class ResultsSink {
 public:
  ResultsSink(const GridSpec& spec, const RunInfo& info,
              GridRunSummary summary);

  const GridRunSummary& summary() const { return summary_; }
  const std::vector<CellOutcome>& cells() const { return summary_.cells; }

  // The outcome of one (row, col, rep) cell.
  const CellOutcome& Cell(std::size_t row, std::size_t col, int rep) const;

  // Mean/stddev/CI of `metric` across the reps of (row, col). Cells that
  // did not record the metric contribute nothing (n shrinks).
  util::RunningStat Stat(std::size_t row, std::size_t col,
                         const std::string& metric) const;

  // Sample vectors named `name` concatenated across the reps of (row, col),
  // in rep order (for CDFs pooled over repetitions).
  std::vector<double> PooledSamples(std::size_t row, std::size_t col,
                                    const std::string& name) const;

  // Full document (cells + aggregates + manifest fields).
  Json ToJson() const;

  // Writes ToJson() to `path` (pretty-printed). Returns false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  GridSpec spec_;  // copy without the run closure
  RunInfo info_;
  GridRunSummary summary_;
};

}  // namespace omcast::runner
