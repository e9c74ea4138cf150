#include "sim/stats.hpp"

namespace amo::sim {

std::uint64_t LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Rank of the requested sample, 1-based: ceil(q * count), at least 1.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += counts_[i];
    if (cum >= rank) {
      return std::clamp(bucket_upper(i), min_, max_);
    }
  }
  return max_;  // unreachable: cum reaches count_ by the last bucket
}

LogHistogram& LogHistogram::operator+=(const LogHistogram& o) {
  if (o.count_ == 0) return *this;
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  return *this;
}

}  // namespace amo::sim
