#include "proto/reassembly.hpp"

#include <cstring>

#include "util/fmt.hpp"
#include "util/panic.hpp"

namespace nmad::proto {

void MessageAssembly::rebind(std::span<std::byte> new_dest) {
  NMAD_ASSERT(new_dest.size() == dest_.size(), "rebind to differently-sized buffer");
  if (new_dest.data() == dest_.data()) return;
  if (whole()) {
    std::memcpy(new_dest.data(), dest_.data(), received_);
  }
  for (const auto& [start, end] : intervals_) {
    std::memcpy(new_dest.data() + start, dest_.data() + start, end - start);
  }
  dest_ = new_dest;
}

util::Expected<bool> MessageAssembly::add_chunk(std::uint64_t offset,
                                                std::span<const std::byte> payload) {
  if (payload.empty()) return false;
  const std::uint64_t end = offset + payload.size();
  if (end > dest_.size()) {
    return util::make_error(util::sformat(
        "chunk [%llu, %llu) exceeds message length %zu",
        static_cast<unsigned long long>(offset),
        static_cast<unsigned long long>(end), dest_.size()));
  }
  // Every byte already landed: any in-range chunk is a duplicate.
  if (complete()) return false;
  if (received_ == 0 && payload.size() == dest_.size()) {
    std::memcpy(dest_.data(), payload.data(), payload.size());
    received_ = payload.size();
    return true;
  }

  // Find the first interval whose end is > offset; overlap exists if it
  // starts before our end.
  auto it = intervals_.upper_bound(offset);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > offset) {
      if (prev->first <= offset && prev->second >= end) {
        // Fully covered: a retransmitted or requeued chunk whose original
        // made it. The payload is byte-identical by the protocol's
        // chunking invariant; nothing to apply.
        return false;
      }
      return util::make_error(util::sformat(
          "chunk [%llu, %llu) overlaps received range [%llu, %llu)",
          static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(end),
          static_cast<unsigned long long>(prev->first),
          static_cast<unsigned long long>(prev->second)));
    }
  }
  if (it != intervals_.end() && it->first < end) {
    return util::make_error(util::sformat(
        "chunk [%llu, %llu) overlaps received range [%llu, %llu)",
        static_cast<unsigned long long>(offset),
        static_cast<unsigned long long>(end),
        static_cast<unsigned long long>(it->first),
        static_cast<unsigned long long>(it->second)));
  }

  std::memcpy(dest_.data() + offset, payload.data(), payload.size());
  received_ += payload.size();

  // Insert and merge with adjacent intervals.
  std::uint64_t new_start = offset;
  std::uint64_t new_end = end;
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second == offset) {
      new_start = prev->first;
      intervals_.erase(prev);
    }
  }
  if (it != intervals_.end() && it->first == end) {
    new_end = it->second;
    intervals_.erase(it);
  }
  intervals_.emplace(new_start, new_end);
  return true;
}

}  // namespace nmad::proto
