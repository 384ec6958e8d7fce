// Simulator profiling: per-event-type dispatch counts, callback wall-time
// histograms and event-queue depth sampling.
//
// This is the ONE place in the simulation stack where host wall-clock is
// legal (annotated for the determinism lint): profiling measures the
// simulator, never feeds it. A SimProfiler's numbers are host-dependent and
// are therefore excluded from every digest and every results field that the
// determinism tests compare; they surface only through the benches'
// --profile flag so perf work has a measured baseline.
//
// Usage: sim::Simulator::SetProfiler() installs a profiler; scheduling
// sites label their events with string-literal tags
// (ScheduleAt/ScheduleAfter's trailing parameter) and RunOne brackets each
// callback with BeginEvent/EndEvent. MergeFrom folds the profilers of many
// runner cells into one whole-grid table.
#pragma once

#include <chrono>  // omcast-lint: allow(wallclock)
#include <cstdint>
#include <map>
#include <string>

#include "obs/registry.h"

namespace omcast::obs {

// Thread-compatibility: a SimProfiler is owned by one simulation run on one
// thread (cell-confined, like obs::Registry). A grid keeps one profiler per
// cell and folds them with MergeFrom after runner::RunGrid has returned, so
// no profiler is ever shared between running threads.
class SimProfiler {
 public:
  struct TagStats {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };

  SimProfiler();

  // Called by the simulator around every dispatched callback. `tag` must be
  // a string literal (or otherwise outlive the call); nullptr buckets under
  // "untagged". `queue_depth` is the pending-event count at dispatch.
  void BeginEvent(const char* tag, std::size_t queue_depth);
  void EndEvent();

  // Called by the simulator around each Run()/RunUntil() loop. Unlike the
  // BeginEvent/EndEvent brackets -- which time callbacks only -- the loop
  // bracket includes queue operations (schedule/cancel/pop), so this is the
  // number that moves when the event queue itself gets faster; the headline
  // events-per-second rate in --profile tables derives from it.
  void BeginLoop();
  void EndLoop();

  // Memory sampling hook, called by the simulator every few thousand events
  // (and once per loop end): records high-water marks for the event-pool
  // occupancy and the process peak RSS (getrusage; 0 where unsupported).
  void SampleMemory(std::size_t pool_live, std::size_t pool_capacity);

  std::uint64_t events() const { return events_; }
  double loop_us() const { return loop_us_; }
  std::uint64_t loop_events() const { return loop_events_; }
  // Events dispatched per wall second of run-loop time (0 before any loop).
  double events_per_sec() const {
    return loop_us_ > 0.0 ? static_cast<double>(loop_events_) /
                                (loop_us_ * 1e-6)
                          : 0.0;
  }
  // Process-wide peak RSS observed during this run. getrusage's high-water
  // mark is monotone over the process lifetime and counts every thread's
  // allocations, so in a multi-cell grid this is an honest process number,
  // not a per-run attribution.
  std::uint64_t peak_rss_bytes() const { return peak_rss_bytes_; }
  std::size_t pool_live_max() const { return pool_live_max_; }
  std::size_t pool_capacity_max() const { return pool_capacity_max_; }
  const std::map<std::string, TagStats>& per_tag() const { return per_tag_; }
  const Histogram& wall_us_hist() const { return wall_us_; }
  const Histogram& queue_depth_hist() const { return depth_; }

  // Folds another run's profile in: counts and times add, maxima (per-tag
  // max_us, peak RSS, pool high-water marks) take the max, and
  // the wall-time and queue-depth histograms merge. `other` must have
  // finished running.
  void MergeFrom(const SimProfiler& other);

  // Human-readable per-tag dispatch/wall-time table plus queue-depth,
  // run-loop and memory summaries (the --profile output).
  std::string FormatTable() const;

 private:
  using Clock = std::chrono::steady_clock;  // omcast-lint: allow(wallclock)

  std::map<std::string, TagStats> per_tag_;
  Histogram wall_us_;
  Histogram depth_;
  std::uint64_t events_ = 0;
  TagStats* current_ = nullptr;
  Clock::time_point started_{};
  // Run-loop timing (queue operations included).
  double loop_us_ = 0.0;
  std::uint64_t loop_events_ = 0;
  std::uint64_t loop_start_events_ = 0;
  Clock::time_point loop_started_{};
  bool in_loop_ = false;
  // Memory high-water marks.
  std::uint64_t peak_rss_bytes_ = 0;
  std::size_t pool_live_max_ = 0;
  std::size_t pool_capacity_max_ = 0;
  int runs_ = 1;  // runs this profile covers; MergeFrom adds the other's
};

}  // namespace omcast::obs
