#include "rand/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
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
// must return the same sample and leave the engine at the same point. A
// visitor that stops after m elements gets the sample's first m and is not
// called again, and the engine still ends where the full call leaves it.
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
    for (std::size_t m = 0; m <= sample.size(); ++m) {
      Rng visiting(41);
      std::vector<int> seen;
      std::size_t calls = 0;
      visiting.VisitSampleWithoutReplacementFrom(pool, k, [&](int x) {
        ++calls;
        if (seen.size() == m) return false;
        seen.push_back(x);
        return true;
      });
      EXPECT_EQ(seen, std::vector<int>(sample.begin(),
                                       sample.begin() +
                                           static_cast<std::ptrdiff_t>(m)))
          << n << " " << k << " stop " << m;
      EXPECT_EQ(calls, std::min(m + 1, sample.size()))
          << n << " " << k << " stop " << m;
      EXPECT_EQ(visiting.engine()(), next) << n << " " << k << " stop " << m;
    }
  }
}

// The owned engine is MT19937-64, whose output sequence the C++ standard
// fixes: it must emit std::mt19937_64's outputs for any seed, including the
// all-ones seed and a hash-derived one like the grid's cell seeds.
TEST(Mt19937_64, MatchesTheStandardEngine) {
  const std::uint64_t seeds[] = {
      0, 1, 5, 5489, ~std::uint64_t{0}, 0x9e3779b97f4a7c15ULL,
  };
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 owned(seed);
    std::mt19937_64 standard(seed);  // omcast-lint: allow(rand) the reference
    int mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i)
      if (owned() != standard()) ++mismatches;
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

// [rand.predef]: the 10000th consecutive invocation of a default-seeded
// (5489) mt19937_64 produces 9981545732273789042.
TEST(Mt19937_64, TenThousandthOutputIsTheStandardsValue) {
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

// Below(n) is libstdc++'s bounded draw, so it returns what
// std::uniform_int_distribution<std::uint64_t>(0, n - 1) returned from the
// same seed, and consumes as many outputs. The values were recorded from
// that distribution over std::mt19937_64 (seed 20261021, eight draws per n).
// n = 2^63 + 1 rejects about half its draws (eight draws took eleven
// outputs), so its rejection loop runs.
TEST(Rng, BelowMatchesRecordedUniformIntDistribution) {
  struct Golden {
    std::uint64_t n = 0;
    std::uint64_t draws[8] = {};
    std::uint64_t next = 0;  // the engine's next raw output
  };
  const Golden goldens[] = {
      {1, {0, 0, 0, 0, 0, 0, 0, 0}, 3626350922769504557ULL},
      {2, {1, 0, 0, 1, 1, 0, 1, 1}, 3626350922769504557ULL},
      {3, {2, 0, 0, 2, 2, 1, 1, 2}, 3626350922769504557ULL},
      {616, {574, 11, 97, 474, 453, 262, 401, 481}, 3626350922769504557ULL},
      {10000,
       {9322, 181, 1590, 7702, 7354, 4263, 6519, 7816},
       3626350922769504557ULL},
      {(1ULL << 32) + 1,
       {4004038455ULL, 77927812ULL, 683274538ULL, 3308173812ULL,
        3158846392ULL, 1831184282ULL, 2800318010ULL, 3357161502ULL},
       3626350922769504557ULL},
      {(1ULL << 63) + 1,
       {167348703764075807ULL, 1467320897815481476ULL,
        6783570972257071426ULL, 6013637135125954228ULL,
        7209449428918762004ULL, 1813175461384752278ULL,
        6729136927620496098ULL, 4976257369175224597ULL},
       10890645267748344925ULL},
      {~0ULL,
       {17197214214778942152ULL, 334697407528151614ULL,
        2934641795630962952ULL, 14208498332042163766ULL,
        13567141944514142851ULL, 7864876602607447599ULL,
        12027274270251908455ULL, 14418898857837524007ULL},
       3626350922769504557ULL},
  };
  for (const Golden& g : goldens) {
    Rng rng(20261021);
    for (const std::uint64_t want : g.draws)
      EXPECT_EQ(rng.Below(g.n), want) << "n " << g.n;
    EXPECT_EQ(rng.engine()(), g.next) << "n " << g.n;
  }
}

// UniformInt(lo, hi) likewise returns std::uniform_int_distribution<int>'s
// values (recorded from seed 99), negative and full-width ranges included.
TEST(Rng, UniformIntMatchesRecordedUniformIntDistribution) {
  struct Golden {
    int lo = 0;
    int hi = 0;
    int draws[8] = {};
  };
  const Golden goldens[] = {
      {-2, 2, {0, 2, 1, -2, 1, 0, 1, -1}},
      {-1000000,
       7,
       {-565453, -18871, -329897, -860735, -356837, -522082, -232110,
        -731771}},
      {0, 0, {0, 0, 0, 0, 0, 0, 0, 0}},
      {std::numeric_limits<int>::min(),
       std::numeric_limits<int>::max(),
       {-281129170, 2066401050, 730565553, -1549348739, 614858809, -94856299,
        1150554595, -995455149}},
      {5, 616, {270, 605, 415, 90, 398, 297, 474, 169}},
  };
  for (const Golden& g : goldens) {
    Rng rng(99);
    for (const int want : g.draws)
      EXPECT_EQ(rng.UniformInt(g.lo, g.hi), want) << g.lo << " " << g.hi;
    EXPECT_EQ(rng.engine()(), 4099582546264857900ULL) << g.lo << " " << g.hi;
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
