#include "rand/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "rand/rng.h"

namespace omcast::rnd {
namespace {

TEST(BoundedPareto, SamplesStayInBounds) {
  Rng rng(7);
  const BoundedPareto d = PaperBandwidthDist();
  for (int i = 0; i < 20000; ++i) {
    const double x = d.Sample(rng);
    EXPECT_GE(x, d.lo());
    EXPECT_LE(x, d.hi());
  }
}

TEST(BoundedPareto, CdfEndpoints) {
  const BoundedPareto d(1.2, 0.5, 100.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(100.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.1), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(1000.0), 1.0);
}

TEST(BoundedPareto, PaperFreeRiderFraction) {
  // Section 5: with shape 1.2, bounds [0.5, 100], ~55.5% of members have
  // bandwidth < 1 (zero out-degree -> free-riders).
  const BoundedPareto d = PaperBandwidthDist();
  EXPECT_NEAR(d.Cdf(1.0), 0.555, 0.015);
}

TEST(BoundedPareto, EmpiricalMatchesCdf) {
  Rng rng(11);
  const BoundedPareto d = PaperBandwidthDist();
  const int n = 200000;
  int below1 = 0, below10 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = d.Sample(rng);
    if (x < 1.0) ++below1;
    if (x < 10.0) ++below10;
  }
  EXPECT_NEAR(static_cast<double>(below1) / n, d.Cdf(1.0), 0.01);
  EXPECT_NEAR(static_cast<double>(below10) / n, d.Cdf(10.0), 0.01);
}

TEST(BoundedPareto, SuperNodesExist) {
  // The paper notes a small number of "super-nodes" with out-degree > 20.
  Rng rng(13);
  const BoundedPareto d = PaperBandwidthDist();
  int super = 0;
  for (int i = 0; i < 100000; ++i)
    if (d.Sample(rng) > 20.0) ++super;
  EXPECT_GT(super, 0);
  EXPECT_LT(super, 3000);  // still rare (< 3%)
}

TEST(LognormalDist, MeanMatchesClosedForm) {
  const LognormalDist d = PaperLifetimeDist();
  EXPECT_NEAR(d.Mean(), std::exp(5.5 + 2.0), 1e-9);
  // The paper quotes 1809 s.
  EXPECT_NEAR(d.Mean(), kMeanLifetimeSeconds, 1.5);
}

TEST(LognormalDist, EmpiricalMedian) {
  // Median of lognormal(mu, sigma) is exp(mu) ~= 244.7 s.
  Rng rng(3);
  const LognormalDist d = PaperLifetimeDist();
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(d.Sample(rng));
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], std::exp(5.5), 15.0);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    const int k = rng.UniformInt(-2, 2);
    EXPECT_GE(k, -2);
    EXPECT_LE(k, 2);
  }
}

TEST(Rng, DeterministicBySeed) {
  Rng a(99), b(99), c(100);
  bool diverged_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const double xa = a.Uniform(0, 1), xb = b.Uniform(0, 1),
                 xc = c.Uniform(0, 1);
    EXPECT_EQ(xa, xb);
    if (xa != xc) diverged_from_c = true;
  }
  EXPECT_TRUE(diverged_from_c);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  std::vector<int> pool;
  for (int i = 0; i < 50; ++i) pool.push_back(i);
  const auto sample = rng.SampleWithoutReplacement(pool, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<int> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 20u);
}

TEST(Rng, SampleLargerThanPoolReturnsAll) {
  Rng rng(5);
  const auto sample = rng.SampleWithoutReplacement(std::vector<int>{1, 2, 3}, 10);
  EXPECT_EQ(sample.size(), 3u);
}

// SampleWithoutReplacementFrom promises the by-value overload's variate
// sequence, and the in-place overload is the by-value one in the caller's
// buffer; join sampling and the gossip slices rely on both. Each overload
// must return the same sample and leave the engine at the same point.
TEST(Rng, SampleOverloadsDrawTheSameSequence) {
  const std::pair<std::size_t, std::size_t> cases[] = {
      {10, 0}, {10, 3}, {10, 10}, {10, 15}, {100, 49}, {10000, 617}};
  for (const auto& [n, k] : cases) {
    std::vector<int> pool(n);
    for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<int>(7 * i + 3);
    Rng by_value(41), from(41), in_place(41);
    const std::vector<int> sample = by_value.SampleWithoutReplacement(pool, k);
    EXPECT_EQ(sample.size(), std::min(n, k)) << n << " " << k;
    EXPECT_EQ(from.SampleWithoutReplacementFrom(pool, k), sample)
        << n << " " << k;
    std::vector<int> buffer = pool;
    in_place.SampleWithoutReplacementInPlace(buffer, k);
    EXPECT_EQ(buffer, sample) << n << " " << k;
    EXPECT_GE(buffer.capacity(), n);
    const std::uint64_t next = by_value.engine()();
    EXPECT_EQ(from.engine()(), next) << n << " " << k;
    EXPECT_EQ(in_place.engine()(), next) << n << " " << k;
  }
}

TEST(Rng, ExponentialMeanIsUnbiased) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.ExponentialMean(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

}  // namespace
}  // namespace omcast::rnd
