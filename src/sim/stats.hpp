// Lightweight statistics: typed counters, scalar accumulators, and
// log-bucketed latency histograms.
//
// Hardware models keep plain structs of counters (cheap, no string lookups
// on the hot path); `Accum` summarizes distributions (latencies, queue
// depths) as count/sum/min/max/mean/variance; `LogHistogram` adds tail
// quantiles (p50/p90/p99/p999) at a bounded relative error, with an exact
// associative merge.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace amo::sim {

/// Streaming scalar summary: count, sum, min, max, mean, and variance
/// (Welford's online algorithm, so no catastrophic cancellation).
class Accum {
 public:
  void add(std::uint64_t v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const double x = static_cast<double>(v);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }
  void reset() { *this = Accum{}; }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance (0 for fewer than two samples).
  [[nodiscard]] double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  /// Merges another accumulator (Chan et al. parallel combination).
  /// Empty-safe: merging an empty side never disturbs min/max/mean state.
  Accum& operator+=(const Accum& o) {
    if (o.count_ == 0) return *this;
    if (count_ == 0) {
      *this = o;
      return *this;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(o.count_);
    const double delta = o.mean_ - mean_;
    m2_ += o.m2_ + delta * delta * n1 * n2 / (n1 + n2);
    mean_ = (n1 * mean_ + n2 * o.mean_) / (n1 + n2);
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    return *this;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Log-bucketed histogram over uint64 samples (HdrHistogram-style).
///
/// Buckets are powers of two subdivided into 2^kSubBits linear
/// sub-buckets, so any recorded value lands in a bucket whose width is at
/// most value / 2^kSubBits: quantile estimates carry a bounded relative
/// error of 1/16 (6.25%). Values below kSubBuckets are exact. The struct
/// is fixed-size (no allocation on record, ever) and the merge is an
/// element-wise count addition — exact and associative, so partial
/// histograms combine in any grouping to the same result.
class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;  // 16
  /// 0..15 exact, then 60 pow-2 bins x 16 sub-buckets covers all of
  /// uint64: (64 - kSubBits + 1) * kSubBuckets slots.
  static constexpr std::size_t kBuckets =
      (64 - kSubBits + 1) * kSubBuckets;  // 976

  void record(std::uint64_t v) {
    ++counts_[bucket_index(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void reset() { *this = LogHistogram{}; }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Value at quantile q in [0, 1]: the upper bound of the bucket holding
  /// the sample of rank ceil(q * count), clamped into [min, max] so
  /// single-value and extreme quantiles are exact. Returns 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// Exact associative merge: element-wise bucket-count addition.
  LogHistogram& operator+=(const LogHistogram& o);

  /// Index of the bucket holding `v`; exposed for tests.
  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const std::uint32_t b = 63 - std::countl_zero(v);  // bit_width(v) - 1
    const std::uint64_t sub = (v >> (b - kSubBits)) - kSubBuckets;
    return static_cast<std::size_t>(b - kSubBits + 1) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

  /// Largest value mapping to bucket `i`; exposed for tests.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(std::size_t i) {
    if (i < kSubBuckets) return static_cast<std::uint64_t>(i);
    const std::uint32_t b =
        static_cast<std::uint32_t>(i / kSubBuckets) + kSubBits - 1;
    const std::uint64_t sub = i % kSubBuckets;
    const std::uint64_t low = (kSubBuckets + sub) << (b - kSubBits);
    return low + ((std::uint64_t{1} << (b - kSubBits)) - 1);
  }

 private:
  // Cold-path-sized: ~7.8 KB of counts. Owners embed these at the end of
  // their stats blocks so hot counters stay in the leading cache lines.
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace amo::sim
