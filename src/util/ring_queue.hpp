// FIFO queue on a growable circular buffer.
//
// std::deque allocates a block every few hundred bytes of push_back and
// frees one every few hundred bytes of pop_front, so even a queue that never
// holds more than one element allocates steadily. RingQueue keeps one
// buffer that only grows (doubling, to the peak depth), so a queue cycling
// at a bounded depth allocates nothing once it reached that depth.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/panic.hpp"

namespace nmad::util {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// The i-th element from the front (0 = front).
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  [[nodiscard]] T& front() noexcept { return (*this)[0]; }

  void push_back(T value) {
    if (count_ == slots_.size()) grow();
    (*this)[count_] = std::move(value);
    count_ += 1;
  }

  void pop_front() {
    NMAD_ASSERT(count_ > 0, "pop_front on empty RingQueue");
    front() = T{};  // release what the element holds now, not on reuse
    head_ = (head_ + 1) & (slots_.size() - 1);
    count_ -= 1;
  }

  void clear() {
    while (count_ > 0) pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< capacity is always 0 or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace nmad::util
