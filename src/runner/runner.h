// The orchestration engine: executes every cell of a GridSpec on up to
// `threads` threads, sharing one immutable topology across cells, and
// returns the outcomes in grid order (row-major, then rep) regardless of
// the scheduling interleaving.
//
// Scheduling: the cells are a fixed list known before any of them runs, so
// min(threads, pending cells) threads, the caller among them, claim them
// through one atomic cell cursor that counts down from the last pending
// cell. A thread that finishes early claims more, so one long cell never
// strands the rest, and the last rows -- the largest sizes of a size
// sweep -- start first. Each cell writes only its own outcome and
// exception slot, so RunGrid takes no lock. A cell that throws does not
// stop the others; after every thread has joined, the exception of the
// lowest-index failing cell is rethrown.
//
// Resumability: pass the parsed JSON document of a previous run of the same
// figure and every cell whose identity (row, col, rep) and derived seed
// match an entry in it is satisfied from the file instead of re-executed.
// A cell whose seed does not match (different base seed or relabeled grid)
// is re-run, never silently reused.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/grid.h"
#include "runner/json.h"

namespace omcast::runner {

struct RunnerOptions {
  int threads = 0;             // <= 0: hardware concurrency
  std::uint64_t base_seed = 1;
  bool progress = false;       // per-cell progress + ETA lines on stderr
  const Json* resume = nullptr;  // previous results document, or nullptr
};

struct GridRunSummary {
  std::vector<CellOutcome> cells;  // grid order: (row, col, rep) row-major
  int executed = 0;                // cells actually run this invocation
  int resumed = 0;                 // cells satisfied from `resume`
  int threads = 0;                 // threads that ran cells, caller included
  double wall_ms = 0.0;            // whole-grid wall clock
};

GridRunSummary RunGrid(const GridSpec& spec, const RunnerOptions& options);

// Digest of every cell's identity, seed and results (metrics, samples,
// series) in grid order. Wall-clock and resume provenance are excluded, so
// serial, parallel and resumed runs of the same grid must produce the same
// digest -- the property the determinism test asserts.
std::uint64_t DigestOutcomes(const std::vector<CellOutcome>& cells);

}  // namespace omcast::runner
