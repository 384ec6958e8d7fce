// Statistics helpers shared by the metrics collectors and the experiment
// harness: streaming mean/variance with confidence intervals, and an
// empirical CDF evaluated on a grid.  Both operate on plain doubles so that
// callers can feed them counts, delays (ms), ratios, etc.
#pragma once

#include <cstddef>
#include <vector>

namespace omcast::util {

// Welford streaming accumulator: numerically stable mean and variance
// without storing samples.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  // Half-width of the 95% confidence interval of the mean (normal approx.,
  // which is what the paper's error bars in Fig. 14 use in effect).
  double ci95_half_width() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Evaluates the empirical CDF at chosen abscissae (e.g. the 1,2,4,...,128
// grid of the paper's Fig. 5): returns P(X <= at[i]) for each i.
std::vector<double> CdfAt(std::vector<double> samples,
                          const std::vector<double>& at);

}  // namespace omcast::util
