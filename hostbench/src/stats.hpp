// Sample statistics for the benchmark's reports: the percentile rule, the
// favourable decile and an allocation-free log-linear histogram.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hostbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it, so that a tail figure is never one or two outliers. The
/// benchmark checks every percentile it reports: an unsupported one makes
/// the run incorrect.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< n
  /// Samples ranked strictly on the percentile's tail side of the reported
  /// one: above it for q > 0.5, below it for q <= 0.5.
  std::size_t beyond = 0;
  [[nodiscard]] bool supported() const noexcept { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile (rank = ceil(q * n), 1-based) of `samples`,
/// which is sorted in place. q in (0, 1]; an empty input gives n = 0.
[[nodiscard]] Percentile percentile(std::vector<double>& samples, double q);

/// The favourable decile of a run's per-round (or per-block) figures: the
/// 10th percentile of times, the 90th of rates (nearest rank; 0 when
/// empty). The benchmark shares its machine, and interference arrives in
/// episodes of seconds: a change to the code moves every round, an episode
/// only some, so this figure follows the code while up to nine tenths of a
/// run are disturbed.
inline constexpr double kFavourable = 0.10;
[[nodiscard]] Percentile favourable_low(std::vector<double> values);
[[nodiscard]] Percentile favourable_high(std::vector<double> values);

/// Log-linear histogram of non-negative integers with 32 sub-buckets per
/// power of two (about 3% resolution). Records without allocating, so the
/// tracer can use it inside spans.
class LogHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void record(std::uint64_t v) noexcept;
  void merge(const LogHistogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  /// Nearest-rank percentile, interpolated linearly inside the bucket that
  /// holds the rank.
  [[nodiscard]] Percentile percentile(double q) const noexcept;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept;
  [[nodiscard]] static std::uint64_t bucket_low(std::size_t idx) noexcept;
  [[nodiscard]] static std::uint64_t bucket_width(std::size_t idx) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace hostbench
