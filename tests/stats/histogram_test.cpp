#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/rng.h"

namespace prism::stats {
namespace {

TEST(HistogramTest, StartsEmpty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
  // Percentile returns a bucket representative within relative precision.
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 1000.0, 1000.0 / 64);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int i = 0; i <= 100; ++i) h.record(i);
  // Values below 2*64=128 land in exact unit buckets.
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(0.5), 50);
  EXPECT_EQ(h.percentile(1.0), 100);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, PercentileRelativeErrorBounded) {
  Histogram h;
  prism::sim::Rng rng(99);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 50000; ++i) {
    const auto v = rng.uniform_int(1, 10'000'000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const auto exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const auto approx = h.percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.04 + 2)
        << "q=" << q;
  }
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(60);
  EXPECT_DOUBLE_EQ(h.mean(), 30.0);
}

TEST(HistogramTest, RecordNCountsAll) {
  Histogram h;
  h.record_n(500, 10);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 500);
  EXPECT_EQ(h.max(), 500);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.record(100);
  a.record(200);
  b.record(300);
  b.record(50);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 50);
  EXPECT_EQ(a.max(), 300);
  EXPECT_DOUBLE_EQ(a.mean(), 162.5);
}

TEST(HistogramTest, MergeResolutionMismatchThrows) {
  Histogram a(6), b(8);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(HistogramTest, MergeEmptyIsIdentity) {
  // Merging an empty histogram must not disturb min/max/moments — the
  // windowed time-series merges many empty per-class cells.
  Histogram a, empty;
  a.record(100);
  a.record(300);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100);
  EXPECT_EQ(a.max(), 300);
  EXPECT_DOUBLE_EQ(a.mean(), 200.0);

  // Empty absorbing non-empty adopts its extrema instead of keeping the
  // zero-initialized min.
  Histogram b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 100);
  EXPECT_EQ(b.max(), 300);

  // Empty + empty stays well-defined everywhere.
  Histogram c, d;
  c.merge(d);
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.percentile(0.99), 0);
  EXPECT_DOUBLE_EQ(c.mean(), 0.0);
  EXPECT_DOUBLE_EQ(c.stddev(), 0.0);
}

TEST(HistogramTest, PercentileOutOfRangeQuantilesClamp) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(1.5), h.percentile(1.0));
}

TEST(HistogramTest, PercentileNaNIsSafeNotUndefined) {
  // NaN slips through ordered range checks (`q < 0` and `q > 1` are both
  // false), and ceil(NaN * count) cast to an unsigned is UB. The guard
  // must treat it as q=0 — on empty and non-empty histograms alike.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Histogram empty;
  EXPECT_EQ(empty.percentile(nan), 0);
  Histogram h;
  h.record(10);
  h.record(20);
  EXPECT_EQ(h.percentile(nan), h.percentile(0.0));
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(123);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(HistogramTest, PercentileIsMonotonic) {
  Histogram h;
  prism::sim::Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    h.record(rng.uniform_int(0, 1'000'000));
  }
  std::int64_t prev = -1;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const auto v = h.percentile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(HistogramTest, MaxPercentileCoversMax) {
  Histogram h;
  h.record(1'000'000);
  h.record(5);
  EXPECT_GE(h.percentile(1.0), 1'000'000);
}

TEST(HistogramTest, PercentileNeverExceedsMax) {
  Histogram h(4);
  h.record(1000);  // its bucket's upper edge is 1023
  EXPECT_EQ(h.percentile(0.5), 1000);
  EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(HistogramTest, HugeValuesDoNotOverflow) {
  Histogram h;
  h.record(std::int64_t{1} << 46);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.percentile(1.0), (std::int64_t{1} << 46) - 1);
}

TEST(HistogramTest, StddevOfConstantIsZero) {
  Histogram h;
  h.record_n(1000, 100);
  // Exact running moments: bucket width no longer smears a constant.
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(HistogramTest, StddevIsExact) {
  // Textbook set: {2,4,4,4,5,5,7,9} has mean 5 and population stddev
  // exactly 2 — representable in doubles, so no tolerance needed.
  Histogram h;
  for (const std::int64_t v : {2, 4, 4, 4, 5, 5, 7, 9}) h.record(v);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 2.0);
}

TEST(HistogramTest, StddevSurvivesMergeAndWeightedRecords) {
  // The same textbook set assembled from weighted records across two
  // histograms must give the identical exact moments.
  Histogram a;
  a.record(2);
  a.record_n(4, 3);
  Histogram b;
  b.record_n(5, 2);
  b.record(7);
  b.record(9);
  a.merge(b);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.stddev(), 2.0);
}

TEST(HistogramTest, StddevEdgeCases) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);  // empty
  h.record(42);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);  // single sample
  h.record(44);
  EXPECT_DOUBLE_EQ(h.stddev(), 1.0);  // {42,44}: mean 43, stddev 1
  h.reset();
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);  // reset clears the moments
  h.record(2);
  h.record(4);
  EXPECT_DOUBLE_EQ(h.stddev(), 1.0);
}

TEST(HistogramTest, ForEachBucketVisitsAllCounts) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(i * 997);
  std::uint64_t total = 0;
  h.for_each_bucket(
      [&](std::int64_t, std::uint64_t count) { total += count; });
  EXPECT_EQ(total, 1000u);
}

TEST(HistogramTest, InvalidResolutionThrows) {
  EXPECT_THROW(Histogram(0), std::invalid_argument);
  EXPECT_THROW(Histogram(17), std::invalid_argument);
}

// Property sweep: percentile(q) must always bracket the exact empirical
// quantile within the histogram's relative precision, across resolutions.
class HistogramPrecision : public ::testing::TestWithParam<int> {};

TEST_P(HistogramPrecision, RelativeErrorScalesWithResolution) {
  const int bits = GetParam();
  Histogram h(bits);
  prism::sim::Rng rng(1234);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform_int(100, 50'000'000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const double rel = 2.0 / static_cast<double>(1 << bits);
  for (double q : {0.5, 0.9, 0.99}) {
    const auto exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const auto approx = h.percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * rel + 2)
        << "bits=" << bits << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, HistogramPrecision,
                         ::testing::Values(4, 6, 8, 10));

}  // namespace
}  // namespace prism::stats
