// Wire format of nmad packets.
//
// Every packet a driver puts on a wire — simulated or real TCP — is encoded
// with this format. A packet is:
//
//   PacketHeader (16 bytes)
//   SegHeader x seg_count (20 bytes each)
//   concatenated segment payloads
//
// A *data* packet can carry several segments (possibly from different
// messages — the paper's aggregation optimization merges segments across
// logical channels), each addressed by (tag, msg_seq, offset) into its
// destination message. Rendezvous control packets reuse SegHeader with an
// empty payload. All integers are little-endian on the wire.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "proto/pool.hpp"
#include "util/expected.hpp"

namespace nmad::proto {

/// Application-level message tag (like an MPI tag).
using Tag = std::uint32_t;
/// Per-gate message sequence number; (gate, msg_seq) identifies a message.
using MsgSeq = std::uint32_t;

enum class PacketKind : std::uint8_t {
  kData = 1,    ///< carries one or more data segments
  kRdvReq = 2,  ///< rendezvous request: announces a large message
  kRdvAck = 3,  ///< rendezvous grant: receiver is ready
};

/// Addressing and extent of one segment within its message.
struct SegHeader {
  Tag tag = 0;
  MsgSeq msg_seq = 0;
  std::uint32_t offset = 0;     ///< byte offset within the full message
  std::uint32_t len = 0;        ///< payload bytes carried in this packet
  std::uint32_t total_len = 0;  ///< full message length (same in every chunk)

  friend bool operator==(const SegHeader&, const SegHeader&) = default;
};

inline constexpr std::size_t kPacketHeaderBytes = 16;
inline constexpr std::size_t kSegHeaderBytes = 20;
inline constexpr std::uint16_t kMagic = 0x4d4e;  // "NM"
inline constexpr std::uint8_t kVersion = 1;

// --------------------------------------------------------------------------
// Frame envelope (per-rail reliability layer)
// --------------------------------------------------------------------------
//
// Every frame a driver puts on a wire is the encoded packet prefixed by a
// fixed 24-byte *envelope* — the per-rail reliability header added by the
// fault-tolerance subsystem (core/rail_guard.hpp):
//
//   magic(2) version(1) flags(1) seq(4) ack_small(4) ack_large(4)
//   epoch(4) crc32c(4)
//
//  - `seq` is a per-(rail, track) sequence number starting at 1; 0 marks an
//    unsequenced frame (raw driver tests). The receiver suppresses
//    duplicate sequence numbers (retransmissions, injected duplication).
//  - `ack_small` / `ack_large` piggyback the sender's *receive* state on
//    this rail: cumulative highest-contiguous sequence received per track.
//    An envelope with flags bit kFrameAckOnly set carries no packet at all
//    (standalone ack on an otherwise idle rail).
//  - `epoch` names the rail's incarnation: a reconnect handshake bumps it,
//    fencing every frame (and every sequence number) of the previous life
//    of the link. 0 marks an unfenced frame (raw driver tests, acks-off
//    configurations). Probe and reconnect handshake frames are
//    envelope-only frames carrying the flags below.
//  - `crc32c` covers the envelope (with the crc field zeroed) plus the
//    packet bytes, folded span-by-span at the gather boundary so the
//    zero-copy packet path never flattens a frame to checksum it.
//
// The envelope is sealed by the RailGuard at post time and validated by it
// at delivery; corrupt or malformed frames are counted and dropped (the
// ack/retransmit protocol recovers the data), never trusted.

inline constexpr std::size_t kFrameEnvelopeBytes = 24;
inline constexpr std::uint16_t kFrameMagic = 0x464e;  // "NF"
inline constexpr std::uint8_t kFrameVersion = 2;

enum FrameFlags : std::uint8_t {
  kFrameAckOnly = 1u << 0,  ///< envelope-only frame: acks, no packet
  /// Keepalive probe (envelope-only; always combined with kFrameAckOnly).
  kFrameProbe = 1u << 1,
  /// Immediate reply to a keepalive probe (envelope-only).
  kFrameProbeReply = 1u << 2,
  /// Reconnect handshake: "adopt my epoch, reset sequencing state".
  kFrameReconnect = 1u << 3,
  /// Reconnect acknowledgment: "epoch adopted, state reset".
  kFrameReconnectAck = 1u << 4,
};

struct FrameEnvelope {
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;        ///< per-(rail, track) sequence; 0 = unsequenced
  std::uint32_t ack_small = 0;  ///< cumulative ack of peer seqs, small track
  std::uint32_t ack_large = 0;  ///< cumulative ack of peer seqs, large track
  std::uint32_t epoch = 0;      ///< rail incarnation; 0 = unfenced
  std::uint32_t checksum = 0;   ///< CRC32C over envelope (crc zeroed) + packet
};

/// Encode `env` into `out` (>= kFrameEnvelopeBytes) and seal it: the
/// checksum is computed over the envelope prefix plus `head` plus each
/// payload span, in wire order, and stored in the crc field.
void seal_frame_envelope(std::span<std::byte> out, const FrameEnvelope& env,
                         std::span<const std::byte> head,
                         std::span<const std::span<const std::byte>> payloads);

/// Validate the fixed fields (size, magic, version, ack-only length rules)
/// and decode the envelope. Does NOT verify the checksum — callers decide
/// whether to pay for verify_frame_checksum (the fuzz target exercises
/// both paths independently).
util::Expected<FrameEnvelope> decode_frame_envelope(std::span<const std::byte> frame);

/// Recompute the checksum of a contiguous received frame (envelope +
/// packet) and compare with the stored crc field.
[[nodiscard]] bool verify_frame_checksum(std::span<const std::byte> frame) noexcept;

/// Total on-wire size of a packet carrying the given payload split across
/// `seg_count` segments.
constexpr std::size_t packet_wire_size(std::size_t seg_count,
                                       std::size_t payload_bytes) noexcept {
  return kPacketHeaderBytes + seg_count * kSegHeaderBytes + payload_bytes;
}

/// Exact wire size of a rendezvous control packet (one SegHeader, no
/// payload) — small enough to encode into stack or pooled storage with no
/// intermediate builder state.
inline constexpr std::size_t kControlPacketBytes =
    kPacketHeaderBytes + kSegHeaderBytes;

/// A scatter-gather packet: the encoded header block (packet header + seg
/// headers, usually pooled) plus an iovec-style list of payload spans that
/// reference the segments *in place*. Drivers gather the pieces only at the
/// wire boundary, so single-segment eager packets and DMA chunks carry user
/// memory zero-copy; only aggregation stages payloads (into the recycled
/// `staging` block, which the span list then points into).
///
/// Lifetime: payload spans are borrowed — the referenced request memory must
/// stay valid until the driver reports local send completion (on_sent),
/// which is exactly the SendRequest lifetime contract. Destroying the view
/// returns the pooled blocks to their arenas.
class PacketView {
 public:
  /// Payload span lists up to this long live inline in the view; longer
  /// lists spill to the heap (counted by heap_allocs()). Aggregated staged
  /// runs and memory-adjacent segments merge, so almost every packet fits.
  static constexpr std::size_t kInlineSpans = 4;

  PacketView() = default;
  PacketView(PacketView&&) = default;
  PacketView& operator=(PacketView&&) = default;
  PacketView(const PacketView&) = delete;
  PacketView& operator=(const PacketView&) = delete;

  /// Wrap an encoded head-only packet (e.g. a control packet: the whole
  /// wire image lives in `head`, there is no payload).
  [[nodiscard]] static PacketView from_encoded(PooledBuffer head);

  /// Non-owning view of the same packet: borrows this view's head block and
  /// payload span list without touching pool ownership. Used by the
  /// retransmit path, which must re-post a frame the original (retained)
  /// view still owns. The alias must not outlive the original.
  [[nodiscard]] PacketView alias() const;

  /// Encoded packet header + seg headers (for control packets: the whole
  /// wire).
  [[nodiscard]] std::span<const std::byte> head() const noexcept {
    return alias_head_.data() != nullptr ? alias_head_ : head_.bytes();
  }
  /// Payload pieces, in wire order.
  [[nodiscard]] std::span<const std::span<const std::byte>> payload_spans()
      const noexcept;
  [[nodiscard]] std::size_t span_count() const noexcept { return span_count_; }
  [[nodiscard]] std::size_t payload_bytes() const noexcept { return payload_bytes_; }
  [[nodiscard]] std::size_t wire_size() const noexcept {
    return head().size() + payload_bytes_;
  }
  /// Payload bytes that were memcpy'd while building this packet
  /// (aggregation staging only; zero for the zero-copy paths).
  [[nodiscard]] std::size_t copied_bytes() const noexcept { return copied_bytes_; }
  /// Heap allocations performed while building this packet: pool misses on
  /// the head/staging blocks plus a span-list spill beyond kInlineSpans.
  [[nodiscard]] std::uint64_t heap_allocs() const noexcept;

  /// Append the full wire image (head + payloads) to `out` — the gather a
  /// driver performs at the wire boundary, also used by tests.
  void gather_into(std::vector<std::byte>& out) const;
  [[nodiscard]] std::vector<std::byte> to_bytes() const;

  /// Drop the span list and return the pooled blocks to their arenas now
  /// (destruction does the same implicitly).
  void reset() noexcept;

 private:
  friend class GatherBuilder;

  PooledBuffer head_;
  PooledBuffer staging_;
  /// Set only on alias() views: borrowed head bytes owned by the original.
  std::span<const std::byte> alias_head_{};
  std::array<std::span<const std::byte>, kInlineSpans> inline_{};
  std::vector<std::span<const std::byte>> overflow_;
  std::uint32_t span_count_ = 0;
  std::size_t payload_bytes_ = 0;
  std::size_t copied_bytes_ = 0;
};

/// The packet encoder (encode_data_packet_view wraps it; the control
/// packets are fixed images written by encode_rdv_*_into): encodes headers
/// incrementally into the (pooled) head block and records payload
/// *references* instead of copying them. Segments are either referenced in place (`add_segment`, zero-copy)
/// or staged (`add_segment_staged`, the paper's aggregation memcpy into a
/// contiguous area). finish() seals the header and resolves the span list.
class GatherBuilder {
 public:
  /// `staging` may be a default (dead) handle when no segment will be
  /// staged; add_segment_staged requires a live one.
  GatherBuilder(PacketKind kind, PooledBuffer head, PooledBuffer staging = {});

  /// Append a segment whose payload is referenced in place (zero-copy).
  /// `payload.size()` must equal `header.len`; the memory must outlive the
  /// send (the SendRequest lifetime contract).
  void add_segment(const SegHeader& header, std::span<const std::byte> payload);

  /// Append a segment whose payload is memcpy'd into the staging block —
  /// the aggregation path's deliberate copy. Consecutive staged segments
  /// resolve to a single contiguous span.
  void add_segment_staged(const SegHeader& header,
                          std::span<const std::byte> payload);

  /// Seal the header (patch seg_count/payload_len) and resolve the payload
  /// span list. The builder may not be reused afterwards.
  [[nodiscard]] PacketView finish() &&;

 private:
  /// data == nullptr marks a staged range of `len` bytes (resolved against
  /// the staging block at finish(), when it can no longer reallocate).
  struct Entry {
    const std::byte* data = nullptr;
    std::size_t len = 0;
  };
  void push_entry(Entry e);

  PooledBuffer head_;
  PooledBuffer staging_;
  std::array<Entry, PacketView::kInlineSpans> inline_entries_{};
  std::vector<Entry> overflow_entries_;
  std::size_t entry_count_ = 0;
  std::size_t seg_count_ = 0;
  std::size_t payload_bytes_ = 0;
  std::size_t staged_bytes_ = 0;
};

/// One segment of a received packet: its header plus a view of its payload
/// inside the packet bytes.
struct WireSegment {
  SegHeader header;
  std::span<const std::byte> payload;
};

/// Non-allocating reader over a received packet, the one packet decoder.
/// read_packet() validates the whole packet up front (header fields, every
/// segment's length and extent), so walking the segments afterwards cannot
/// fail. Does not own the bytes: they must outlive the reader and every
/// WireSegment taken from it.
class PacketReader {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = WireSegment;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = WireSegment;

    [[nodiscard]] WireSegment operator*() const noexcept;
    Iterator& operator++() noexcept;
    friend bool operator==(const Iterator& a, const Iterator& b) noexcept {
      return a.index_ == b.index_;
    }

   private:
    friend class PacketReader;
    Iterator(const std::byte* wire, std::size_t payload_off, std::size_t index) noexcept
        : wire_(wire), payload_off_(payload_off), index_(index) {}
    [[nodiscard]] const std::byte* header() const noexcept {
      return wire_ + kPacketHeaderBytes + index_ * kSegHeaderBytes;
    }
    const std::byte* wire_ = nullptr;
    std::size_t payload_off_ = 0;
    std::size_t index_ = 0;
  };

  [[nodiscard]] PacketKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t seg_count() const noexcept { return seg_count_; }
  [[nodiscard]] Iterator begin() const noexcept;
  [[nodiscard]] Iterator end() const noexcept;

 private:
  friend util::Expected<PacketReader> read_packet(std::span<const std::byte> wire);
  PacketReader(std::span<const std::byte> wire, PacketKind kind,
               std::size_t seg_count) noexcept
      : wire_(wire), kind_(kind), seg_count_(seg_count) {}

  std::span<const std::byte> wire_;
  PacketKind kind_;
  std::size_t seg_count_;
};

/// Validate an encoded packet (magic, version, kind, size, segment count,
/// segment lengths against the payload, each extent against its message
/// length) and return a reader over its segments.
util::Expected<PacketReader> read_packet(std::span<const std::byte> wire);

/// Zero-copy single-segment data packet: pooled header block + a span
/// referencing `payload` in place.
PacketView encode_data_packet_view(BufferPool& pool, const SegHeader& header,
                                   std::span<const std::byte> payload);

/// Fixed-size stack-encoded control-packet fast paths: write the complete
/// kControlPacketBytes wire image directly into `out` (which must be at
/// least that large) with no builder, no intermediate vectors.
void encode_rdv_req_into(std::span<std::byte> out, Tag tag, MsgSeq seq,
                         std::uint32_t total_len);
void encode_rdv_ack_into(std::span<std::byte> out, Tag tag, MsgSeq seq);

/// Pooled control packets (the fast paths above, into a recycled block).
PacketView encode_rdv_req_view(BufferPool& pool, Tag tag, MsgSeq seq,
                               std::uint32_t total_len);
PacketView encode_rdv_ack_view(BufferPool& pool, Tag tag, MsgSeq seq);

}  // namespace nmad::proto
