// Bounded lock-free single-producer/single-consumer ring buffer — the
// submission queues between the application threads and the threaded
// progression engine (core/progress.hpp).
//
// Contract:
//  - exactly ONE thread calls try_push (the producer) and exactly ONE
//    thread calls try_pop (the consumer) at any point in time. "One
//    thread" may be a changing identity as long as successive calls on
//    the same side are ordered by a happens-before edge (e.g. threads
//    that take turns draining under the world lock);
//  - capacity is rounded up to a power of two; the ring holds exactly
//    `capacity()` elements before try_push reports full;
//  - elements are moved in and out; a popped slot's element is destroyed
//    (moved-from) before the slot is republished to the producer.
//
// Memory ordering is the classic Lamport queue: the producer publishes a
// slot with a release store of head_, the consumer acquires it; the
// consumer frees a slot with a release store of tail_, the producer
// acquires that. Indices are monotonically increasing uint64s (no ABA);
// the slot index is `pos & mask_`.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace nmad::core {

/// Fixed rather than std::hardware_destructive_interference_size: that
/// constant varies with -mtune (gcc warns about ABI instability) and 64 is
/// right for every target we build on.
inline constexpr std::size_t kCacheLineSize = 64;

/// Escalating backoff for a full-ring spin: stay hot for a few rounds, then
/// yield, then sleep — latency matters less than not burning a core once
/// the consumer side has stalled. Used only by the counted full-submission
/// path (spsc_push_backoff); idle threads park on a Doorbell instead.
inline void ring_backoff(std::uint32_t round) {
  if (round < 16) return;
  if (round < 64) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to the next power of two (min 2).
  explicit SpscRing(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Returns false when the ring is full.
  bool try_push(T&& value) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ > mask_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ > mask_) return false;
    }
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return false;
    }
    out = std::move(slots_[tail & mask_]);
    slots_[tail & mask_] = T{};  // drop resources before republishing the slot
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy (exact when called from the producer or
  /// consumer thread; a racy estimate from anywhere else).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? static_cast<std::size_t>(head - tail) : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  const std::size_t mask_;
  std::vector<T> slots_;

  // Producer-owned line: the producer writes head_, and keeps a stale copy
  // of tail_ so the common-case push does not touch the consumer's line.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;

  // Consumer-owned line.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;
};

/// Bounded-blocking push: spin with ring_backoff() until the ring accepts
/// `value` or `max_rounds` backoff rounds elapse. `on_first_stall` runs
/// exactly once, on the first failed fast-path attempt — the hook the
/// progression engine uses to count backpressure events. Returns false
/// (with `value` intact, try_push does not consume on failure) only after
/// the round budget is exhausted; pass a huge budget for an effectively
/// unbounded, lossless push.
template <typename T, typename OnStall>
bool spsc_push_backoff(SpscRing<T>& ring, T&& value, std::uint64_t max_rounds,
                       OnStall&& on_first_stall) {
  if (ring.try_push(std::move(value))) return true;
  on_first_stall();
  for (std::uint64_t round = 1; round <= max_rounds; ++round) {
    ring_backoff(static_cast<std::uint32_t>(
        round > 0xffffffffu ? 0xffffffffu : round));
    if (ring.try_push(std::move(value))) return true;
  }
  return false;
}

}  // namespace nmad::core
