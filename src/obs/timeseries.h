// Deterministic sim-time-windowed time series: the recovery-curve substrate
// behind the chaos/bake-off cells' per-disruption dynamics.
//
// A TimeSeries buckets sim time into fixed-width windows (window index =
// floor(t / window_s), an absolute grid, so two runs of the same scenario
// put the same sample in the same window regardless of when sampling
// started). Two flavors:
//
//   * kCounterRate -- AddDelta(t, d) accumulates d into t's window; the
//     flattened value of a window is the sum of deltas recorded in it
//     (divide by window_s for a rate). Untouched windows inside the
//     recorded range flatten to 0.
//   * kGauge -- Sample(t, v) records an instantaneous value; the last
//     sample in a window wins. Untouched windows inside the recorded range
//     carry the previous window's value forward (a gauge stays at its last
//     observed level until re-sampled).
//
// Determinism contract: storage is a dense vector indexed from the first
// touched window -- no hashing, no wall-clock, no allocation-order
// dependence -- so equal-seed runs produce byte-identical Points() under
// any thread count or delay model (the replay digest tests pin this
// through the runner's per-cell `timeseries` block).
//
// Thread-compatibility: cell-confined and unsynchronized, exactly like
// obs::Registry (one instance per runner grid cell; only its Points()
// leave the cell, through the cell's result).
#pragma once

#include <vector>

namespace omcast::obs {

class TimeSeries {
 public:
  enum class Kind : int {
    kCounterRate = 0,  // per-window sum of deltas
    kGauge = 1,        // last sample in the window wins
  };

  TimeSeries(Kind kind, double window_s);

  Kind kind() const { return kind_; }
  double window_s() const { return window_s_; }
  bool empty() const { return values_.empty(); }

  // Counter-rate flavor: accumulates `delta` into the window containing `t`.
  // Recording a zero delta still marks the window as covered, so a sampler
  // that ticks every window produces a gap-free curve.
  void AddDelta(double t, double delta);

  // Gauge flavor: records `value` for the window containing `t`; the last
  // sample in a window wins.
  void Sample(double t, double value);

  struct Point {
    double t = 0.0;      // window start time (index * window_s)
    double value = 0.0;
  };

  // Dense flatten over [first touched window, last touched window]: one
  // point per window, gaps filled per the flavor rule above (0 for
  // counter-rate, carry-forward for gauge). Deterministic byte-for-byte
  // across equal-seed runs.
  std::vector<Point> Points() const;

 private:
  long WindowIndex(double t) const;
  // Grows the dense range to include window `idx`; returns its slot.
  std::size_t Touch(long idx);

  Kind kind_ = Kind::kGauge;
  double window_s_ = 0.0;
  long first_window_ = 0;        // index of values_[0] once non-empty
  std::vector<double> values_;
  std::vector<char> covered_;    // window received an explicit record
};

}  // namespace omcast::obs
