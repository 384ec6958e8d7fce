#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace omcast::util {

void RunningStat::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::ci95_half_width() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

std::vector<double> CdfAt(std::vector<double> samples,
                          const std::vector<double>& at) {
  std::vector<double> out(at.size(), 0.0);
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < at.size(); ++i) {
    const auto it = std::upper_bound(samples.begin(), samples.end(), at[i]);
    out[i] = static_cast<double>(it - samples.begin()) / n;
  }
  return out;
}

}  // namespace omcast::util
