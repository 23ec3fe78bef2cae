#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace hostbench {

Percentile percentile(std::vector<double>& samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double exact = q * static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = q > 0.5 ? samples.size() - rank : rank - 1;
  return p;
}

Percentile favourable_low(std::vector<double> values) {
  return percentile(values, kFavourable);
}

Percentile favourable_high(std::vector<double> values) {
  return percentile(values, 1.0 - kFavourable);
}

std::size_t LogHistogram::bucket_of(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int top = 63 - std::countl_zero(v);  // >= kSubBits
  const int shift = top - kSubBits;
  const std::size_t sub = static_cast<std::size_t>(v >> shift) & (kSub - 1);
  return static_cast<std::size_t>(shift + 1) * kSub + sub;
}

std::uint64_t LogHistogram::bucket_low(std::size_t idx) noexcept {
  if (idx < kSub) return idx;
  const std::size_t shift = idx / kSub - 1;
  return (kSub + idx % kSub) << shift;
}

std::uint64_t LogHistogram::bucket_width(std::size_t idx) noexcept {
  if (idx < kSub) return 1;
  return std::uint64_t{1} << (idx / kSub - 1);
}

void LogHistogram::record(std::uint64_t v) noexcept {
  counts_[bucket_of(v)] += 1;
  total_ += 1;
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

Percentile LogHistogram::percentile(double q) const noexcept {
  Percentile p;
  p.samples = static_cast<std::size_t>(total_);
  if (total_ == 0) return p;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
  rank = std::clamp<std::uint64_t>(rank, 1, total_);
  p.beyond = static_cast<std::size_t>(total_ - rank);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    if (below + counts_[i] >= rank) {
      // Spread the bucket's samples evenly over its width.
      const double within = (static_cast<double>(rank - below) - 0.5) /
                            static_cast<double>(counts_[i]);
      p.value = static_cast<double>(bucket_low(i)) +
                within * static_cast<double>(bucket_width(i));
      return p;
    }
    below += counts_[i];
  }
  return p;
}

}  // namespace hostbench
