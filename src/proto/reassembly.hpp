// Receive-side reassembly of messages from (possibly out-of-order,
// possibly overlapping-free) chunks.
//
// With multi-rail stripping, one message's chunks arrive over different
// NICs in arbitrary order; with aggregation, several messages' segments
// arrive in one packet. Each in-flight incoming message owns a
// MessageAssembly that tracks which byte ranges have landed (an ordered
// interval set) and reports completion when coverage reaches total length.
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
  explicit MessageAssembly(std::span<std::byte> dest) : dest_(dest) {}

  /// Start over on a new message with destination `dest` (reuse in place).
  void reset(std::span<std::byte> dest) noexcept {
    dest_ = dest;
    intervals_.clear();
    received_ = 0;
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
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return dest_.size(); }
  [[nodiscard]] bool complete() const noexcept { return received_ == dest_.size(); }

  /// Number of maximal contiguous received ranges (test/diagnostic aid).
  [[nodiscard]] std::size_t fragment_count() const noexcept {
    return whole() ? 1 : intervals_.size();
  }

  /// Switch the destination buffer, copying already-received ranges across.
  /// Used when a message that started assembling into unexpected-message
  /// temporary storage is matched by a late-posted receive. `new_dest` must
  /// be the same size as the current destination.
  void rebind(std::span<std::byte> new_dest);

 private:
  /// Received in one chunk covering the whole message: the interval set
  /// stays empty.
  [[nodiscard]] bool whole() const noexcept {
    return intervals_.empty() && received_ > 0;
  }

  std::span<std::byte> dest_;
  /// Maximal disjoint received intervals: start -> end (exclusive). Empty
  /// for a message received whole (see whole()).
  std::map<std::uint64_t, std::uint64_t> intervals_;
  std::uint64_t received_ = 0;
};

}  // namespace nmad::proto
