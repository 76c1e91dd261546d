// HDR-style latency histogram.
//
// Latency experiments need accurate tail percentiles over millions of
// samples without storing them all. This histogram uses logarithmic
// bucketing with linear sub-buckets (the HdrHistogram scheme): values are
// recorded with a bounded relative error set by the sub-bucket resolution
// (64 sub-buckets per octave -> <1.6% relative error), while memory stays a
// few kilobytes regardless of sample count.
#pragma once

#include <cstdint>
#include <vector>

namespace prism::stats {

/// Fixed-resolution value histogram with percentile queries.
///
/// Values are non-negative 64-bit integers (in this codebase: durations in
/// nanoseconds). Negative values are clamped to zero.
class Histogram {
 public:
  /// `sub_bucket_bits` controls relative precision: each power-of-two range
  /// is split into 2^sub_bucket_bits linear buckets. The default (6) keeps
  /// relative error under 1/64.
  explicit Histogram(int sub_bucket_bits = 6);

  /// Records one observation.
  void record(std::int64_t value) noexcept;

  /// Records `count` identical observations.
  void record_n(std::int64_t value, std::uint64_t count) noexcept;

  /// Merges another histogram (same sub_bucket_bits required).
  void merge(const Histogram& other);

  /// Total number of recorded observations.
  std::uint64_t count() const noexcept { return count_; }

  /// Smallest recorded value (0 if empty).
  std::int64_t min() const noexcept { return count_ == 0 ? 0 : min_; }

  /// Largest recorded value (0 if empty).
  std::int64_t max() const noexcept { return count_ == 0 ? 0 : max_; }

  /// Arithmetic mean of recorded values (0 if empty). Uses exact running
  /// sum, not bucket midpoints.
  double mean() const noexcept;

  /// Exact running sum of recorded values (0 if empty). Exact for totals
  /// below 2^53 ns — far beyond any simulated experiment.
  double sum() const noexcept { return sum_; }

  /// Standard deviation of recorded values, from the exact running
  /// sum-of-squares (consistent with mean(); bucket resolution plays no
  /// part).
  double stddev() const noexcept;

  /// Value at quantile q in [0, 1]. Returns a bucket-representative value
  /// (upper edge of the containing bucket) clamped to max(), so
  /// percentile(1.0) == max(). Returns 0 when empty.
  std::int64_t percentile(double q) const noexcept;

  /// Convenience: percentile(0.5).
  std::int64_t median() const noexcept { return percentile(0.5); }

  /// Removes all observations.
  void reset() noexcept;

  int sub_bucket_bits() const noexcept { return sub_bucket_bits_; }

  /// Iterates non-empty buckets as (representative value, count). Used by
  /// the CDF exporter.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] != 0) fn(bucket_value(i), buckets_[i]);
    }
  }

 private:
  std::size_t bucket_index(std::int64_t value) const noexcept;
  std::int64_t bucket_value(std::size_t index) const noexcept;

  int sub_bucket_bits_;
  std::int64_t sub_bucket_count_;  // 2^sub_bucket_bits
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace prism::stats
