#include "obs/registry.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace omcast::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  util::Check(!bounds_.empty(), "histogram needs at least one bucket bound");
  util::Check(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bucket bounds must be sorted");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  long cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const long next = cumulative + counts_[i];
    if (static_cast<double>(next) >= rank) {
      // Bucket edges, clamped to the observed range so sparse outer buckets
      // cannot stretch the estimate past real data.
      const double lo =
          std::max(min_, i == 0 ? min_ : bounds_[i - 1]);
      const double hi =
          std::min(max_, i < bounds_.size() ? bounds_[i] : max_);
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(counts_[i]);
      return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min_,
                        max_);
    }
    cumulative = next;
  }
  return max_;
}

void Histogram::MergeFrom(const Histogram& other) {
  util::Check(bounds_ == other.bounds_,
              "histogram merge requires identical bucket bounds");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
}

void Registry::Count(const std::string& name, double delta) {
  counters_[name] += delta;
}

void Registry::SetGauge(const std::string& name, double value) {
  gauges_[name] = value;
}

Histogram& Registry::Hist(const std::string& name,
                          std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(bounds))).first->second;
}

TimeSeries& Registry::Series(const std::string& name, TimeSeries::Kind kind,
                             double window_s) {
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_.emplace(name, TimeSeries(kind, window_s)).first->second;
}

double Registry::CounterValue(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0.0;
}

std::map<std::string, double> Registry::Flatten() const {
  std::map<std::string, double> out = counters_;
  for (const auto& [name, value] : gauges_) out[name] = value;
  for (const auto& [name, hist] : histograms_) {
    out[name + ".count"] = static_cast<double>(hist.count());
    out[name + ".sum"] = hist.sum();
    out[name + ".min"] = hist.min();
    out[name + ".max"] = hist.max();
    out[name + ".p50"] = hist.Quantile(0.5);
    out[name + ".p99"] = hist.Quantile(0.99);
  }
  return out;
}

}  // namespace omcast::obs
