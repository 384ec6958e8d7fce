#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace omcast::util {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squares = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesCombinedStream) {
  RunningStat all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(static_cast<double>(i)) * 10.0;
    all.Add(x);
    (i % 3 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);  // empty rhs: unchanged
  EXPECT_EQ(a.count(), 2u);
  b.Merge(a);  // empty lhs: adopts rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStat, Ci95ShrinksWithSamples) {
  RunningStat small, large;
  for (int i = 0; i < 10; ++i) small.Add(i % 2 == 0 ? 1.0 : 3.0);
  for (int i = 0; i < 1000; ++i) large.Add(i % 2 == 0 ? 1.0 : 3.0);
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
  EXPECT_GT(large.ci95_half_width(), 0.0);
}

TEST(CdfAt, EvaluatesAtGrid) {
  const auto f = CdfAt({1, 2, 4, 8, 16}, {0.5, 1.0, 4.0, 100.0});
  ASSERT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[1], 0.2);
  EXPECT_DOUBLE_EQ(f[2], 0.6);
  EXPECT_DOUBLE_EQ(f[3], 1.0);
}

}  // namespace
}  // namespace omcast::util
