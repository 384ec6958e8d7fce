// The orchestration engine: executes every cell of a GridSpec on up to
// `threads` threads, sharing one immutable topology across cells, and
// returns the outcomes in grid order (row-major, then rep) regardless of
// the scheduling interleaving.
//
// Scheduling: the cells are a fixed list known before any of them runs, so
// min(threads, cells) helper threads claim them through one atomic cell
// cursor that counts down from the last cell, and the caller only joins
// them. A thread that finishes early claims more, so one long cell never
// strands the rest, and the last rows -- the largest sizes of a size
// sweep -- start first. No cell runs on the calling thread, so at any
// thread count a cell allocates from a thread arena of the allocator, not
// from the main thread's heap. Each cell writes only its own outcome and
// exception slot, so RunGrid takes no lock. A cell that throws does not
// stop the others; after every thread has joined, the exception of the
// lowest-index failing cell is rethrown.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/grid.h"

namespace omcast::runner {

struct RunnerOptions {
  int threads = 0;        // <= 0: hardware concurrency
  std::uint64_t base_seed = 1;
  bool progress = false;  // per-cell progress + ETA lines on stderr
};

struct GridRunSummary {
  std::vector<CellOutcome> cells;  // grid order: (row, col, rep) row-major
  int threads = 0;                 // helper threads that ran the cells
  double wall_ms = 0.0;            // whole-grid wall clock
};

GridRunSummary RunGrid(const GridSpec& spec, const RunnerOptions& options);

// Digest of every cell's identity, seed and results (metrics, samples,
// series) in grid order. Wall-clock is excluded, so serial and parallel
// runs of the same grid must produce the same digest -- the property the
// determinism test asserts.
std::uint64_t DigestOutcomes(const std::vector<CellOutcome>& cells);

}  // namespace omcast::runner
