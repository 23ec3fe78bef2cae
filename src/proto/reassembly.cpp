#include "proto/reassembly.hpp"

#include <algorithm>
#include <cstring>

#include "util/fmt.hpp"
#include "util/panic.hpp"

namespace nmad::proto {

namespace {

/// Copy `bytes` to message offset `offset` of a destination made of
/// `segments`, filled in order: one memcpy per segment the range touches.
void scatter(std::span<const std::span<std::byte>> segments,
             std::uint64_t offset, std::span<const std::byte> bytes) {
  for (const std::span<std::byte> seg : segments) {
    if (bytes.empty()) return;
    if (offset >= seg.size()) {
      offset -= seg.size();
      continue;
    }
    const auto n = std::min<std::size_t>(seg.size() - offset, bytes.size());
    std::memcpy(seg.data() + offset, bytes.data(), n);
    bytes = bytes.subspan(n);
    offset = 0;
  }
}

}  // namespace

void MessageAssembly::rebind(std::span<const std::span<std::byte>> segments) {
  NMAD_ASSERT(segments_.empty(), "rebind of an assembly already in segments");
  if (whole()) scatter(segments, 0, dest_.first(received_));
  for (const auto& [start, end] : intervals_) {
    scatter(segments, start, dest_.subspan(start, end - start));
  }
  dest_ = {};
  segments_ = segments;
}

util::Expected<bool> MessageAssembly::add_chunk(std::uint64_t offset,
                                                std::span<const std::byte> payload) {
  if (payload.empty()) return false;
  const std::uint64_t end = offset + payload.size();
  if (end > total_) {
    return util::make_error(util::sformat(
        "chunk [%llu, %llu) exceeds message length %llu",
        static_cast<unsigned long long>(offset),
        static_cast<unsigned long long>(end),
        static_cast<unsigned long long>(total_)));
  }
  // Every byte already landed: any in-range chunk is a duplicate.
  if (complete()) return false;
  if (received_ == 0 && payload.size() == total_) {
    scatter(destination(), 0, payload);
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

  scatter(destination(), offset, payload);
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
