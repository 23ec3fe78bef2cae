// Receive-side reassembly of messages from (possibly out-of-order,
// possibly overlapping-free) chunks.
//
// With multi-rail stripping, one message's chunks arrive over different
// NICs in arbitrary order; with aggregation, several messages' segments
// arrive in one packet. Each in-flight incoming message owns a
// MessageAssembly that tracks which byte ranges have landed (an ordered
// interval set) and reports completion when coverage reaches total length.
// The destination is either one contiguous buffer or the receive's list of
// user segments, which chunks are copied into directly (no staging copy).
// A message that arrives as one whole chunk — every eager message — never
// touches the interval set, so it costs no allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>

#include "util/expected.hpp"

namespace nmad::proto {

class MessageAssembly {
 public:
  /// `dest` must stay valid until complete(); its size is the message length.
  explicit MessageAssembly(std::span<std::byte> dest) { reset(dest); }

  /// Start over on a new message with destination `dest` (reuse in place).
  void reset(std::span<std::byte> dest) noexcept {
    dest_ = dest;
    segments_ = {};
    total_ = dest.size();
    intervals_.clear();
    received_ = 0;
  }
  /// Start over on a new message of `total` bytes that lands in `segments`,
  /// filled in order (a receive posted with a segment list). Bytes past
  /// `total` are never written. The list and the memory it names must stay
  /// valid until complete().
  void reset(std::span<const std::span<std::byte>> segments,
             std::uint64_t total) noexcept {
    reset(std::span<std::byte>{});
    segments_ = segments;
    total_ = total;
  }

  /// Copy `payload` into the message at `offset`. Returns true when new
  /// bytes were applied, false for a chunk whose range is already fully
  /// covered — an exact duplicate, which the reliability layer produces
  /// legitimately (a retransmission whose original did arrive, or a
  /// requeued packet after a rail failover) and which is ignored. Chunks
  /// that fall outside the message or *partially* overlap received bytes
  /// are still errors: the protocol never re-chunks sent data, so a
  /// partial overlap means corrupted addressing.
  util::Expected<bool> add_chunk(std::uint64_t offset,
                                 std::span<const std::byte> payload);

  [[nodiscard]] std::uint64_t bytes_received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_; }
  [[nodiscard]] bool complete() const noexcept { return received_ == total_; }

  /// Number of maximal contiguous received ranges (test/diagnostic aid).
  [[nodiscard]] std::size_t fragment_count() const noexcept {
    return whole() ? 1 : intervals_.size();
  }

  /// Move the message into a receive's `segments` (at least total_bytes()
  /// long, filled in order), copying the ranges received so far across.
  /// Used when a message that started assembling into contiguous
  /// unexpected-message storage is matched by a late-posted receive.
  void rebind(std::span<const std::span<std::byte>> segments);

 private:
  /// Received in one chunk covering the whole message: the interval set
  /// stays empty.
  [[nodiscard]] bool whole() const noexcept {
    return intervals_.empty() && received_ > 0;
  }
  /// The destination as a segment list: `segments_`, or `dest_` alone.
  [[nodiscard]] std::span<const std::span<std::byte>> destination() const noexcept {
    return segments_.empty() ? std::span<const std::span<std::byte>>(&dest_, 1)
                             : segments_;
  }

  /// Contiguous destination; unused when `segments_` is set.
  std::span<std::byte> dest_;
  std::span<const std::span<std::byte>> segments_;
  std::uint64_t total_ = 0;
  /// Maximal disjoint received intervals: start -> end (exclusive). Empty
  /// for a message received whole (see whole()).
  std::map<std::uint64_t, std::uint64_t> intervals_;
  std::uint64_t received_ = 0;
};

}  // namespace nmad::proto
