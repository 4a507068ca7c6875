// test_stats.cpp — the statistics substrate: log-linear histogram,
// run summaries (the paper's median-of-N protocol), and the lock
// usage profile rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/telemetry.hpp"

namespace hemlock {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ExactForSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  // Values below the sub-bucket count are recorded exactly.
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 31u);
}

TEST(Histogram, BoundedRelativeErrorAcrossMagnitudes) {
  Histogram h(5);  // 32 sub-buckets -> <= 1/32 relative error
  std::mt19937_64 rng(7);
  for (int i = 0; i < 50000; ++i) {
    const int mag = static_cast<int>(rng() % 40);
    const std::uint64_t v = (1ULL << mag) + rng() % (1ULL << mag);
    h.record(v);
    const std::uint64_t q = h.quantile(1.0);
    (void)q;
  }
  // Median of a known singleton distribution.
  Histogram h2;
  for (int i = 0; i < 1001; ++i) h2.record(1'000'000);
  const double err =
      std::abs(static_cast<double>(h2.quantile(0.5)) - 1e6) / 1e6;
  EXPECT_LT(err, 1.0 / 32.0 + 1e-9);
}

TEST(Histogram, QuantilesAreMonotone) {
  Histogram h;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 10000; ++i) h.record(rng() % 1'000'000);
  std::uint64_t prev = 0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const std::uint64_t v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  Histogram a, b, combined;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng() % 100000;
    (i % 2 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), combined.quantile(q));
  }
}

TEST(Histogram, MeanTracksSum) {
  Histogram h;
  h.record_n(10, 3);
  h.record(70);
  EXPECT_DOUBLE_EQ(h.mean(), (30.0 + 70.0) / 4.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, SummaryStringMentionsPercentiles) {
  Histogram h;
  h.record(42);
  const std::string s = h.summary();
  EXPECT_NE(s.find("p50"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
}

TEST(Summary, MedianOddAndEven) {
  Summary s;
  for (double v : {5.0, 1.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);  // odd count
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.5);  // even count
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 13.0 / 4.0);
}

TEST(Summary, MedianOfSevenMatchesPaperProtocol) {
  // "We report the median of 7 independent runs" — an outlier-robust
  // statistic: one crazy run must not move it.
  Summary s;
  for (double v : {10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 1000.0}) s.add(v);
  EXPECT_NEAR(s.median(), 10.02, 1e-9);
  EXPECT_GT(s.spread(), 0.0);
}

TEST(Summary, StddevAndDescribe) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);  // < 2 runs
  s.add(4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-9);
  EXPECT_NE(s.describe().find("median="), std::string::npos);
}

TEST(LockUsageProfileRender, MentionsEveryHeadlineStat) {
  telemetry::LockUsageProfile p;
  p.nested_acquires = 24;
  p.max_locks_held = 2;
  p.max_grant_waiters = 1;
  const std::string s = p.describe();
  EXPECT_NE(s.find("24"), std::string::npos);
  EXPECT_NE(s.find("purely local"), std::string::npos);
  EXPECT_TRUE(p.purely_local());
  p.max_grant_waiters = 3;
  EXPECT_FALSE(p.purely_local());
  EXPECT_NE(p.describe().find("multi-waiting"), std::string::npos);
}

}  // namespace
}  // namespace hemlock
