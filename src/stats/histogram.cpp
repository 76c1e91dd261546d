#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace prism::stats {

namespace {

// Buckets cover values up to 2^47 ns (~39 hours) — far beyond any simulated
// latency. 47 octaves above the linear range keeps the table small.
constexpr int kMaxValueBits = 48;

}  // namespace

Histogram::Histogram(int sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits),
      sub_bucket_count_(std::int64_t{1} << sub_bucket_bits) {
  if (sub_bucket_bits < 1 || sub_bucket_bits > 16) {
    throw std::invalid_argument("Histogram: sub_bucket_bits out of range");
  }
  // One linear range [0, 2*sub_bucket_count) plus one half-range per
  // additional octave up to kMaxValueBits.
  const int octaves = kMaxValueBits - (sub_bucket_bits + 1);
  buckets_.assign(
      static_cast<std::size_t>((2 + octaves) * sub_bucket_count_), 0);
}

std::size_t Histogram::bucket_index(std::int64_t value) const noexcept {
  if (value < 0) value = 0;
  const auto v = static_cast<std::uint64_t>(value);
  // Values below 2*sub_bucket_count fall in the initial linear region.
  if (v < static_cast<std::uint64_t>(2 * sub_bucket_count_)) {
    return static_cast<std::size_t>(v);
  }
  // Otherwise: octave = position of the highest set bit relative to the
  // linear region; within the octave, the top sub_bucket_bits bits select
  // the linear sub-bucket.
  const int high_bit = 63 - std::countl_zero(v);
  const int octave = high_bit - sub_bucket_bits_;  // >= 1 here
  const auto sub =
      (v >> octave) - static_cast<std::uint64_t>(sub_bucket_count_);
  std::size_t idx =
      static_cast<std::size_t>((octave + 1) * sub_bucket_count_ + sub);
  if (idx >= buckets_.size()) idx = buckets_.size() - 1;
  return idx;
}

std::int64_t Histogram::bucket_value(std::size_t index) const noexcept {
  const auto i = static_cast<std::int64_t>(index);
  if (i < 2 * sub_bucket_count_) return i;
  const std::int64_t octave = i / sub_bucket_count_ - 1;
  const std::int64_t sub = i % sub_bucket_count_ + sub_bucket_count_;
  // Upper edge of the bucket: representative value never under-reports.
  return ((sub + 1) << octave) - 1;
}

void Histogram::record(std::int64_t value) noexcept { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::uint64_t count) noexcept {
  if (count == 0) return;
  if (value < 0) value = 0;
  buckets_[bucket_index(value)] += count;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_ += count;
  const double v = static_cast<double>(value);
  sum_ += v * static_cast<double>(count);
  sum_sq_ += v * v * static_cast<double>(count);
}

void Histogram::merge(const Histogram& other) {
  if (other.sub_bucket_bits_ != sub_bucket_bits_) {
    throw std::invalid_argument("Histogram::merge: resolution mismatch");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

double Histogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const noexcept {
  if (count_ < 2) return 0.0;
  const double m = mean();
  // Population variance from the exact running moments. The subtraction
  // can go slightly negative from floating-point rounding when all values
  // are (near-)identical; clamp instead of returning NaN.
  const double var = sum_sq_ / static_cast<double>(count_) - m * m;
  return var <= 0.0 ? 0.0 : std::sqrt(var);
}

std::int64_t Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  // !(q >= 0) also catches NaN, which would slip through both ordered
  // comparisons and turn ceil(NaN * count) into an undefined uint64 cast.
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based), rounding up so that
  // percentile(0) == first observation's bucket.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t rank = target == 0 ? 1 : target;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    // A bucket's upper edge can pass the largest value recorded.
    if (seen >= rank) return std::min(bucket_value(i), max_);
  }
  return max_;
}

void Histogram::reset() noexcept {
  buckets_.assign(buckets_.size(), 0);
  count_ = 0;
  min_ = max_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
}

}  // namespace prism::stats
