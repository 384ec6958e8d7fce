// Unified metrics registry: counters, gauges and fixed-bucket histograms.
//
// One Registry instance belongs to one simulation run (a runner grid cell, a
// chaos scenario); it is the single export path for protocol counters --
// the chaos resilience counters (written by exp/chaos.cc) and the
// per-protocol message-cost tallies behind Fig. 10 -- and
// its Flatten()ed snapshot lands in the runner's versioned JSON results
// (schema version 2, per-cell "registry" object).
//
// Everything is deterministic: std::map storage, fixed bucket bounds chosen
// by the instrumentation site, and quantiles interpolated from the bucket
// counts (cross-checked against util::RunningStat by tests/test_obs.cc).
//
// Thread-compatibility contract (no lock): a Registry is deliberately
// unsynchronized because it is *cell-confined* -- each runner grid cell
// builds its own instance on the thread that claimed the cell and only the
// Flatten()ed value and the series' points cross threads, via the cell's
// pre-assigned result slot; no live Registry is ever shared between
// threads. Adding a mutex here would buy nothing and put a lock acquisition
// on every protocol counter bump; the program takes no locks, and the
// omcast-lint raw-mutex rule keeps src/ that way (cells share only
// immutable inputs and RunGrid's atomics; the TSan job checks it).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/timeseries.h"

namespace omcast::obs {

// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
// first bounds.size() buckets; one overflow bucket catches the rest.
// Exact count/sum/min/max are tracked alongside, so the mean is the exact
// sum / count (it matches util::RunningStat's Welford mean to floating-point
// round-off) while quantiles are bucket-interpolated estimates.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  long count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  const std::vector<double>& bounds() const { return bounds_; }
  // bucket_counts()[i] counts observations in (bounds[i-1], bounds[i]];
  // the final entry is the overflow bucket.
  const std::vector<long>& bucket_counts() const { return counts_; }

  // Bucket-interpolated quantile estimate for q in [0, 1]: linear within the
  // bucket holding rank q * count, clamped to [min, max] so the estimate can
  // never leave the observed range. Returns 0 on an empty histogram.
  double Quantile(double q) const;

  // Folds another histogram's observations in; the bucket bounds must match.
  void MergeFrom(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<long> counts_;  // bounds_.size() + 1 (overflow last)
  long count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class Registry {
 public:
  // Monotonic counter; creates at 0 on first touch.
  void Count(const std::string& name, double delta = 1.0);
  // Last-write-wins gauge.
  void SetGauge(const std::string& name, double value);
  // Returns the named histogram, creating it with `bounds` on first use
  // (later calls ignore `bounds`; the first registration wins).
  Histogram& Hist(const std::string& name, std::vector<double> bounds);
  void Observe(const std::string& name, std::vector<double> bounds, double v) {
    Hist(name, std::move(bounds)).Observe(v);
  }
  // Returns the named time series, creating it with (kind, window_s) on
  // first use (later calls ignore both; the first registration wins, as
  // with Hist). Series are the recovery-curve export path: they are NOT
  // part of Flatten() -- the runner writes them into the per-cell
  // `timeseries` block instead (results schema v3).
  TimeSeries& Series(const std::string& name, TimeSeries::Kind kind,
                     double window_s);

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, TimeSeries>& series() const { return series_; }

  double CounterValue(const std::string& name) const;

  // One flat deterministic name -> value map for per-cell export and
  // digests: counters and gauges verbatim; each histogram expanded to
  // name.count / .sum / .min / .max / .p50 / .p99.
  std::map<std::string, double> Flatten() const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace omcast::obs
