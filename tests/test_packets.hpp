// Packets for driver-, guard- and scheduler-level tests, built with the
// library's one encoder (proto::GatherBuilder and its encode_* wrappers).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "proto/wire.hpp"

namespace nmad::test {

/// A single-segment data packet that owns a copy of `payload` (staged into
/// the view's own block), so it may outlive the caller's bytes — e.g. a
/// frame a RailGuard retains for retransmission.
inline proto::PacketView owned_data_packet(const proto::SegHeader& header,
                                           std::span<const std::byte> payload) {
  proto::BufferPool pool;
  proto::GatherBuilder builder(proto::PacketKind::kData, pool.acquire(),
                               pool.acquire());
  builder.add_segment_staged(header, payload);
  return std::move(builder).finish();
}

/// The wire image of a single-segment data packet.
inline std::vector<std::byte> data_packet_bytes(
    const proto::SegHeader& header, std::span<const std::byte> payload) {
  proto::BufferPool pool;
  return proto::encode_data_packet_view(pool, header, payload).to_bytes();
}

}  // namespace nmad::test
