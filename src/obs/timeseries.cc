#include "obs/timeseries.h"

#include <cmath>

#include "util/check.h"

namespace omcast::obs {

TimeSeries::TimeSeries(Kind kind, double window_s)
    : kind_(kind), window_s_(window_s) {
  util::Check(window_s_ > 0.0, "time series window width must be positive");
}

long TimeSeries::WindowIndex(double t) const {
  return static_cast<long>(std::floor(t / window_s_));
}

std::size_t TimeSeries::Touch(long idx) {
  if (values_.empty()) {
    first_window_ = idx;
    values_.push_back(0.0);
    covered_.push_back(0);
    return 0;
  }
  if (idx < first_window_) {
    const auto grow = static_cast<std::size_t>(first_window_ - idx);
    values_.insert(values_.begin(), grow, 0.0);
    covered_.insert(covered_.begin(), grow, 0);
    first_window_ = idx;
    return 0;
  }
  const auto slot = static_cast<std::size_t>(idx - first_window_);
  if (slot >= values_.size()) {
    values_.resize(slot + 1, 0.0);
    covered_.resize(slot + 1, 0);
  }
  return slot;
}

void TimeSeries::AddDelta(double t, double delta) {
  util::Check(kind_ == Kind::kCounterRate,
              "AddDelta is the counter-rate recording call");
  const std::size_t slot = Touch(WindowIndex(t));
  values_[slot] += delta;
  covered_[slot] = 1;
}

void TimeSeries::Sample(double t, double value) {
  util::Check(kind_ == Kind::kGauge, "Sample is the gauge recording call");
  const std::size_t slot = Touch(WindowIndex(t));
  values_[slot] = value;
  covered_[slot] = 1;
}

std::vector<TimeSeries::Point> TimeSeries::Points() const {
  std::vector<Point> out;
  out.reserve(values_.size());
  double carry = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    Point p;
    p.t = static_cast<double>(first_window_ + static_cast<long>(i)) *
          window_s_;
    if (kind_ == Kind::kGauge)
      p.value = covered_[i] ? values_[i] : carry;
    else
      p.value = values_[i];  // uncovered slots hold the 0 they were grown with
    carry = p.value;
    out.push_back(p);
  }
  return out;
}

}  // namespace omcast::obs
