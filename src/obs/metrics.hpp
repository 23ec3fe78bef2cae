// Observability primitives: the event-counter vocabulary every layer of
// the library speaks (rail counters in the scheduler and drivers, strategy
// counters in strat/, request aggregates in core/).
//
// Design constraints (docs/ARCHITECTURE.md §Observability):
//  - zero heap allocation and no locks on the hot path: Counter::inc is one
//    relaxed atomic add, Histogram::record is a bit_width plus two relaxed
//    adds into fixed storage;
//  - the whole layer compiles out: with NMAD_METRICS_ENABLED=0 (CMake
//    option NMAD_METRICS=OFF) every type below collapses to an empty
//    no-op shell with the identical API, so instrumented code builds
//    unchanged and readers observe zeros;
//  - race-free under the threaded progression engine: every cell is a
//    std::atomic updated with memory_order_relaxed, so the progress
//    thread and application threads increment concurrently without
//    serializing on each other.
//    Relaxed ordering is sufficient — metrics are monotonic event tallies
//    read on the cold path (snapshots), never used for synchronization.
//    Cross-cell consistency (e.g. a histogram's count vs its buckets) is
//    only guaranteed on a quiescent engine, which is when snapshots are
//    taken.
//
// The types are copyable (setup-time convenience: Rail vectors move while
// gates are assembled); copies transfer the current values with relaxed
// loads and must not race with concurrent writers — which holds because
// copies only happen before the progress thread starts.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

#if !defined(NMAD_METRICS_ENABLED)
#define NMAD_METRICS_ENABLED 1
#endif

namespace nmad::obs {

inline constexpr bool kMetricsEnabled = NMAD_METRICS_ENABLED != 0;

/// Number of log2 buckets in every Histogram: bucket 0 holds exact zeros,
/// bucket i (i >= 1) holds values in [2^(i-1), 2^i), and the last bucket
/// absorbs everything beyond it.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Index of the bucket a value falls into (shared by the live histogram
/// and snapshot consumers).
[[nodiscard]] constexpr std::size_t histogram_bucket_index(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const auto w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

/// Smallest value belonging to bucket `i` (0, 1, 2, 4, 8, ...).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_lower_bound(std::size_t i) noexcept {
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

#if NMAD_METRICS_ENABLED

/// Monotonic event counter. Wraps around on overflow (mod 2^64), which
/// snapshot deltas handle transparently via unsigned subtraction.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) noexcept
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  Counter& operator=(const Counter& other) noexcept {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Signed level indicator with a high-water mark (e.g. backlog depth).
/// add/sub are atomic read-modify-writes; the high-water mark is maintained
/// with a relaxed CAS max, so concurrent updaters never lose a peak.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other) noexcept
      : value_(other.value_.load(std::memory_order_relaxed)),
        high_water_(other.high_water_.load(std::memory_order_relaxed)) {}
  Gauge& operator=(const Gauge& other) noexcept {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    high_water_.store(other.high_water_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    return *this;
  }

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    raise_high_water(v);
  }
  void add(std::int64_t d) noexcept {
    const std::int64_t nv = value_.fetch_add(d, std::memory_order_relaxed) + d;
    raise_high_water(nv);
  }
  void sub(std::int64_t d) noexcept { add(-d); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_high_water(std::int64_t v) noexcept {
    std::int64_t hw = high_water_.load(std::memory_order_relaxed);
    while (v > hw && !high_water_.compare_exchange_weak(
                         hw, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_water_{0};
};

/// Fixed-log2-bucket histogram for sizes and latencies. All storage is
/// inline; record() never allocates.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram& other) noexcept { *this = other; }
  Histogram& operator=(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sum_.store(other.sum_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    return *this;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[histogram_bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

#else  // NMAD_METRICS_ENABLED == 0: no-op shells, identical API.

class Counter {
 public:
  void inc(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  void sub(std::int64_t) noexcept {}
  [[nodiscard]] std::int64_t value() const noexcept { return 0; }
  [[nodiscard]] std::int64_t high_water() const noexcept { return 0; }
  void reset() noexcept {}
};

class Histogram {
 public:
  void record(std::uint64_t) noexcept {}
  [[nodiscard]] std::uint64_t count() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t bucket(std::size_t) const noexcept { return 0; }
  void reset() noexcept {}
};

#endif  // NMAD_METRICS_ENABLED

}  // namespace nmad::obs
