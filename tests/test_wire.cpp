// Wire-format tests: round trips, aggregated packets, malformed-input
// rejection, and a randomized encode/decode property sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "proto/crc32c.hpp"
#include "proto/wire.hpp"
#include "test_packets.hpp"
#include "util/rng.hpp"

namespace {

using namespace nmad::proto;
using nmad::test::data_packet_bytes;

/// A packet's segments as read_packet walks them, or nullopt on rejection.
struct Decoded {
  PacketKind kind;
  std::vector<WireSegment> segments;
};
std::optional<Decoded> decode(std::span<const std::byte> wire) {
  const auto reader = read_packet(wire);
  if (!reader) return std::nullopt;
  return Decoded{reader->kind(), {reader->begin(), reader->end()}};
}

std::vector<std::byte> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(std::byte(static_cast<unsigned char>(x)));
  return out;
}

TEST(Wire, SingleSegmentRoundTrip) {
  const auto payload = bytes_of({1, 2, 3, 4, 5});
  const SegHeader h{7, 42, 100, 5, 4096};
  const auto wire = data_packet_bytes(h, payload);
  EXPECT_EQ(wire.size(), packet_wire_size(1, 5));

  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, PacketKind::kData);
  ASSERT_EQ(decoded->segments.size(), 1u);
  EXPECT_EQ(decoded->segments[0].header, h);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         decoded->segments[0].payload.begin()));
}

TEST(Wire, AggregatedPacketPreservesAllSegments) {
  BufferPool pool;
  GatherBuilder builder(PacketKind::kData, pool.acquire(), pool.acquire());
  std::vector<std::vector<std::byte>> payloads;
  for (std::uint32_t i = 0; i < 9; ++i) {
    payloads.push_back(std::vector<std::byte>(i * 3, std::byte(i)));
    builder.add_segment_staged(
        SegHeader{i, i * 10, 0, static_cast<std::uint32_t>(i * 3), i * 3 + 1},
        payloads.back());
  }
  const auto wire = std::move(builder).finish().to_bytes();
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->segments.size(), 9u);
  for (std::uint32_t i = 0; i < 9; ++i) {
    EXPECT_EQ(decoded->segments[i].header.tag, i);
    EXPECT_EQ(decoded->segments[i].header.msg_seq, i * 10);
    ASSERT_EQ(decoded->segments[i].payload.size(), i * 3);
    EXPECT_TRUE(std::equal(payloads[i].begin(), payloads[i].end(),
                           decoded->segments[i].payload.begin()));
  }
}

TEST(Wire, ControlPacketsRoundTrip) {
  BufferPool pool;
  const auto req = encode_rdv_req_view(pool, 3, 9, 1 << 20).to_bytes();
  auto decoded = decode(req);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, PacketKind::kRdvReq);
  EXPECT_EQ(decoded->segments[0].header.tag, 3u);
  EXPECT_EQ(decoded->segments[0].header.msg_seq, 9u);
  EXPECT_EQ(decoded->segments[0].header.total_len, 1u << 20);
  EXPECT_TRUE(decoded->segments[0].payload.empty());

  const auto ack = encode_rdv_ack_view(pool, 3, 9).to_bytes();
  decoded = decode(ack);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, PacketKind::kRdvAck);
}

TEST(Wire, RejectsTruncatedPacket) {
  const auto wire = data_packet_bytes(SegHeader{1, 1, 0, 4, 4}, bytes_of({1, 2, 3, 4}));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const auto truncated =
        std::span<const std::byte>(wire.data(), cut);
    EXPECT_FALSE(decode(truncated).has_value()) << "cut at " << cut;
  }
}

TEST(Wire, RejectsBadMagicVersionKind) {
  auto wire = data_packet_bytes(SegHeader{1, 1, 0, 0, 0}, {});
  auto corrupt = wire;
  corrupt[0] = std::byte{0x00};
  EXPECT_FALSE(decode(corrupt).has_value());

  corrupt = wire;
  corrupt[2] = std::byte{99};  // version
  EXPECT_FALSE(decode(corrupt).has_value());

  corrupt = wire;
  corrupt[3] = std::byte{7};  // kind
  EXPECT_FALSE(decode(corrupt).has_value());
}

TEST(Wire, RejectsTrailingGarbage) {
  auto wire = data_packet_bytes(SegHeader{1, 1, 0, 2, 2}, bytes_of({1, 2}));
  wire.push_back(std::byte{0});
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Wire, RejectsExtentBeyondMessage) {
  // Hand-corrupt the offset field of an otherwise valid packet.
  auto wire = data_packet_bytes(SegHeader{1, 1, 0, 4, 4}, bytes_of({1, 2, 3, 4}));
  // SegHeader at offset 16; its 'offset' field at +8.
  wire[16 + 8] = std::byte{0xff};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Wire, RejectsZeroSegmentsAndInconsistentSegmentLengths) {
  // A bare packet header claiming no segments (and no payload).
  std::vector<std::byte> empty(kControlPacketBytes);
  encode_rdv_ack_into(empty, 1, 1);
  empty.resize(kPacketHeaderBytes);
  empty[4] = std::byte{0};  // seg_count
  EXPECT_FALSE(decode(empty).has_value());

  // Segment len field (SegHeader at 16, len at +12) against a 4-byte payload.
  const auto wire =
      data_packet_bytes(SegHeader{1, 1, 0, 4, 100}, bytes_of({1, 2, 3, 4}));
  ASSERT_TRUE(decode(wire).has_value());
  auto longer = wire;
  longer[16 + 12] = std::byte{5};  // exceeds the packet payload
  EXPECT_FALSE(decode(longer).has_value());
  auto shorter = wire;
  shorter[16 + 12] = std::byte{3};  // leaves payload bytes uncovered
  EXPECT_FALSE(decode(shorter).has_value());
}

TEST(Wire, ReaderWalksSegmentsInPlace) {
  BufferPool pool;
  GatherBuilder builder(PacketKind::kData, pool.acquire());
  const auto a = bytes_of({1, 2, 3});
  const auto b = bytes_of({4});
  builder.add_segment(SegHeader{1, 0, 0, 3, 3}, a);
  builder.add_segment(SegHeader{2, 5, 7, 1, 8}, b);
  const auto wire = std::move(builder).finish().to_bytes();
  const auto reader = read_packet(wire);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->seg_count(), 2u);
  std::size_t n = 0;
  for (const WireSegment& seg : *reader) {
    // Payload views point into the packet bytes, not into a copy.
    EXPECT_GE(seg.payload.data(), wire.data());
    EXPECT_LE(seg.payload.data() + seg.payload.size(), wire.data() + wire.size());
    n += 1;
  }
  EXPECT_EQ(n, 2u);
  auto it = reader->begin();
  EXPECT_EQ((*it).header, (SegHeader{1, 0, 0, 3, 3}));
  ++it;
  EXPECT_EQ((*it).header, (SegHeader{2, 5, 7, 1, 8}));
  EXPECT_EQ((*it).payload[0], std::byte{4});
  EXPECT_EQ(++it, reader->end());
}

// --- scatter-gather packet views --------------------------------------------

TEST(WireGather, SingleSegmentViewIsZeroCopyAndByteIdentical) {
  BufferPool pool(256);
  const auto payload = bytes_of({9, 8, 7, 6, 5, 4});
  const SegHeader h{3, 11, 24, 6, 640};
  PacketView view = encode_data_packet_view(pool, h, payload);

  EXPECT_EQ(view.copied_bytes(), 0u);
  EXPECT_EQ(view.span_count(), 1u);
  // The payload span references the caller's memory in place.
  EXPECT_EQ(view.payload_spans()[0].data(), payload.data());

  // The documented layout, written out: PacketHeader (magic "NM", version
  // 1, kind kData, 1 segment, payload_len 6), one SegHeader (tag 3, seq 11,
  // offset 24, len 6, total_len 640), then the payload. Little-endian.
  const auto golden = bytes_of({
      0x4e, 0x4d, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00,  // magic ver kind segs rsvd
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload_len, reserved
      0x03, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00,  // tag, msg_seq
      0x18, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,  // offset, len
      0x80, 0x02, 0x00, 0x00,                          // total_len
      0x09, 0x08, 0x07, 0x06, 0x05, 0x04});            // payload
  const auto gathered = view.to_bytes();
  EXPECT_EQ(gathered, golden);
  EXPECT_EQ(gathered.size(), view.wire_size());
}

TEST(WireGather, MultiSpanPayloadsRoundTrip) {
  // Referenced segments living in *separate* buffers cannot merge, so the
  // view carries one span per segment; the gathered frame must still decode
  // exactly like a flat aggregated packet.
  BufferPool pool(1024);
  std::vector<std::vector<std::byte>> payloads;
  for (int i = 0; i < 7; ++i) {
    payloads.push_back(std::vector<std::byte>(40 + i, std::byte(i + 1)));
  }
  GatherBuilder builder(PacketKind::kData, pool.acquire());
  for (std::uint32_t i = 0; i < 7; ++i) {
    builder.add_segment(
        SegHeader{i, i, 0, static_cast<std::uint32_t>(payloads[i].size()),
                  static_cast<std::uint32_t>(payloads[i].size())},
        payloads[i]);
  }
  PacketView view = std::move(builder).finish();
  EXPECT_EQ(view.span_count(), 7u);
  EXPECT_EQ(view.copied_bytes(), 0u);

  const auto gathered = view.to_bytes();
  const auto decoded = decode(gathered);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->segments.size(), 7u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(decoded->segments[i].header.tag, i);
    EXPECT_TRUE(std::equal(payloads[i].begin(), payloads[i].end(),
                           decoded->segments[i].payload.begin()));
  }
}

TEST(WireGather, EmptyPayloadSegmentsAddHeadersButNoSpans) {
  BufferPool pool(1024);
  const auto payload = bytes_of({1, 2, 3});
  GatherBuilder builder(PacketKind::kData, pool.acquire());
  builder.add_segment(SegHeader{0, 0, 0, 0, 0}, {});
  builder.add_segment(SegHeader{1, 1, 0, 3, 3}, payload);
  builder.add_segment(SegHeader{2, 2, 0, 0, 0}, {});
  PacketView view = std::move(builder).finish();

  EXPECT_EQ(view.span_count(), 1u);
  EXPECT_EQ(view.payload_bytes(), 3u);
  const auto gathered = view.to_bytes();
  const auto decoded = decode(gathered);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->segments.size(), 3u);
  EXPECT_TRUE(decoded->segments[0].payload.empty());
  EXPECT_EQ(decoded->segments[1].payload.size(), 3u);
  EXPECT_TRUE(decoded->segments[2].payload.empty());
}

TEST(WireGather, StagedSegmentsMergeIntoOneSpanAndCountCopies) {
  BufferPool heads(1024);
  BufferPool staging(8192);
  std::vector<std::vector<std::byte>> payloads;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back(std::vector<std::byte>(100, std::byte(0x40 + i)));
  }
  GatherBuilder builder(PacketKind::kData, heads.acquire(), staging.acquire());
  for (std::uint32_t i = 0; i < 5; ++i) {
    builder.add_segment_staged(SegHeader{i, i, 0, 100, 100}, payloads[i]);
  }
  PacketView view = std::move(builder).finish();

  // The aggregation memcpy is the only copy, and consecutive staged
  // segments resolve to a single contiguous span.
  EXPECT_EQ(view.copied_bytes(), 500u);
  EXPECT_EQ(view.span_count(), 1u);
  const auto gathered = view.to_bytes();
  const auto decoded = decode(gathered);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->segments.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(std::equal(payloads[i].begin(), payloads[i].end(),
                           decoded->segments[i].payload.begin()));
  }
}

TEST(WireGather, MaxSegCountSpillsPastInlineSpansAndRoundTrips) {
  // 64 segments in distinct buffers: far beyond kInlineSpans, exercising
  // the overflow span list end to end.
  BufferPool pool(4096);
  constexpr std::uint32_t kSegs = 64;
  std::vector<std::vector<std::byte>> payloads;
  for (std::uint32_t i = 0; i < kSegs; ++i) {
    payloads.push_back(std::vector<std::byte>(8, std::byte(i)));
  }
  GatherBuilder builder(PacketKind::kData, pool.acquire());
  for (std::uint32_t i = 0; i < kSegs; ++i) {
    builder.add_segment(SegHeader{i, i, 0, 8, 8}, payloads[i]);
  }
  PacketView view = std::move(builder).finish();
  EXPECT_EQ(view.span_count(), kSegs);
  EXPECT_GT(view.span_count(), PacketView::kInlineSpans);

  const auto gathered = view.to_bytes();
  const auto decoded = decode(gathered);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->segments.size(), kSegs);
  for (std::uint32_t i = 0; i < kSegs; ++i) {
    EXPECT_EQ(decoded->segments[i].header.tag, i);
    EXPECT_TRUE(std::equal(payloads[i].begin(), payloads[i].end(),
                           decoded->segments[i].payload.begin()));
  }
}

TEST(WireGather, AdjacentReferencedSegmentsMergeSpans) {
  // Two segments that are contiguous in memory (a split message) gather
  // from a single span.
  BufferPool pool(1024);
  std::vector<std::byte> message(200, std::byte{0x5c});
  const std::span<const std::byte> all = message;
  GatherBuilder builder(PacketKind::kData, pool.acquire());
  builder.add_segment(SegHeader{1, 1, 0, 120, 200}, all.subspan(0, 120));
  builder.add_segment(SegHeader{1, 1, 120, 80, 200}, all.subspan(120, 80));
  PacketView view = std::move(builder).finish();
  EXPECT_EQ(view.span_count(), 1u);
  EXPECT_EQ(view.payload_bytes(), 200u);
  ASSERT_TRUE(decode(view.to_bytes()).has_value());
}

TEST(WireGather, ControlPacketsMatchGoldenWireImages) {
  // Rendezvous request and grant for (tag 5, seq 77), written out from the
  // documented layout: PacketHeader (magic "NM", version 1, kind, 1
  // segment, no payload) and one SegHeader (tag, msg_seq, offset 0, len 0,
  // total_len — the announced length for a request, 0 for a grant).
  const auto golden_req = bytes_of({
      0x4e, 0x4d, 0x01, 0x02, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x40, 0xe2, 0x01, 0x00});  // 123456
  const auto golden_ack = bytes_of({
      0x4e, 0x4d, 0x01, 0x03, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00});
  ASSERT_EQ(golden_req.size(), kControlPacketBytes);

  std::array<std::byte, kControlPacketBytes> buf{};
  encode_rdv_req_into(buf, 5, 77, 123456);
  EXPECT_TRUE(std::equal(golden_req.begin(), golden_req.end(), buf.begin()));
  encode_rdv_ack_into(buf, 5, 77);
  EXPECT_TRUE(std::equal(golden_ack.begin(), golden_ack.end(), buf.begin()));

  BufferPool pool(kControlPacketBytes);
  PacketView req = encode_rdv_req_view(pool, 5, 77, 123456);
  EXPECT_EQ(req.to_bytes(), golden_req);
  EXPECT_EQ(req.copied_bytes(), 0u);
  PacketView ack = encode_rdv_ack_view(pool, 5, 77);
  EXPECT_EQ(ack.to_bytes(), golden_ack);
}

// --------------------------------------------------------------------------
// Frame envelope (the per-rail reliability header in front of every packet)
// --------------------------------------------------------------------------

std::vector<std::byte> sealed_frame(const FrameEnvelope& env,
                                    std::span<const std::byte> packet) {
  std::vector<std::byte> frame(kFrameEnvelopeBytes + packet.size());
  std::copy(packet.begin(), packet.end(), frame.begin() + kFrameEnvelopeBytes);
  seal_frame_envelope(std::span(frame).first(kFrameEnvelopeBytes), env, packet,
                      {});
  return frame;
}

TEST(FrameEnvelope, SealDecodeRoundTrip) {
  const auto packet = data_packet_bytes(SegHeader{3, 9, 0, 8, 8},
                                         std::vector<std::byte>(8, std::byte{0xab}));
  FrameEnvelope env;
  env.seq = 41;
  env.ack_small = 17;
  env.ack_large = 123456789;
  const auto frame = sealed_frame(env, packet);

  const auto decoded = decode_frame_envelope(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flags, 0);
  EXPECT_EQ(decoded->seq, 41u);
  EXPECT_EQ(decoded->ack_small, 17u);
  EXPECT_EQ(decoded->ack_large, 123456789u);
  EXPECT_TRUE(verify_frame_checksum(frame));
  // The packet bytes behind the envelope are untouched.
  EXPECT_TRUE(std::equal(packet.begin(), packet.end(),
                         frame.begin() + kFrameEnvelopeBytes));
}

TEST(FrameEnvelope, AckOnlyFrameIsEnvelopeSized) {
  FrameEnvelope env;
  env.flags = kFrameAckOnly;
  env.ack_small = 5;
  const auto frame = sealed_frame(env, {});
  ASSERT_EQ(frame.size(), kFrameEnvelopeBytes);
  const auto decoded = decode_frame_envelope(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(decoded->flags & kFrameAckOnly, 0);
  EXPECT_EQ(decoded->ack_small, 5u);
  EXPECT_TRUE(verify_frame_checksum(frame));
  // An ack-only frame carrying trailing bytes is malformed.
  auto padded = frame;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_frame_envelope(padded).has_value());
}

TEST(FrameEnvelope, EpochRoundTripsAndIsCrcCovered) {
  const auto packet = data_packet_bytes(SegHeader{5, 2, 0, 8, 8},
                                         std::vector<std::byte>(8, std::byte{0x11}));
  FrameEnvelope env;
  env.seq = 7;
  env.epoch = 0xdeadbeef;
  const auto frame = sealed_frame(env, packet);
  const auto decoded = decode_frame_envelope(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch, 0xdeadbeefu);
  EXPECT_TRUE(verify_frame_checksum(frame));
  // The epoch field (bytes 16..19) is under the checksum: an incarnation
  // number can never be corrupted into silently passing the fence.
  for (std::size_t at = 16; at < 20; ++at) {
    auto tampered = frame;
    tampered[at] ^= std::byte{0x01};
    EXPECT_FALSE(verify_frame_checksum(tampered)) << "byte " << at;
  }
}

TEST(FrameEnvelope, HandshakeAndProbeFramesAreEnvelopeOnly) {
  const auto packet = data_packet_bytes(SegHeader{1, 1, 0, 4, 4},
                                         std::vector<std::byte>(4, std::byte{9}));
  for (const std::uint8_t flag :
       {kFrameProbe, kFrameProbeReply, kFrameReconnect, kFrameReconnectAck}) {
    FrameEnvelope env;
    env.flags = static_cast<std::uint8_t>(kFrameAckOnly | flag);
    env.epoch = 3;
    const auto frame = sealed_frame(env, {});
    const auto decoded = decode_frame_envelope(frame);
    ASSERT_TRUE(decoded.has_value()) << "flag " << int(flag);
    EXPECT_EQ(decoded->epoch, 3u);
    EXPECT_NE(decoded->flags & flag, 0);

    // A control flag without kFrameAckOnly claims to carry a packet —
    // malformed by construction, with or without actual payload bytes.
    FrameEnvelope bare;
    bare.flags = flag;
    bare.seq = 1;
    EXPECT_FALSE(decode_frame_envelope(sealed_frame(bare, packet)).has_value())
        << "flag " << int(flag);
  }
}

TEST(FrameEnvelope, RejectsTruncationAtEveryCut) {
  const auto packet = data_packet_bytes(SegHeader{1, 1, 0, 4, 4},
                                         std::vector<std::byte>(4, std::byte{1}));
  FrameEnvelope env;
  env.seq = 1;
  const auto frame = sealed_frame(env, packet);
  for (std::size_t cut = 0; cut < kFrameEnvelopeBytes; ++cut) {
    EXPECT_FALSE(decode_frame_envelope(std::span(frame).first(cut)).has_value())
        << "cut at " << cut;
  }
}

TEST(FrameEnvelope, RejectsBadMagicAndVersion) {
  FrameEnvelope env;
  env.seq = 1;
  const auto packet = data_packet_bytes(SegHeader{1, 1, 0, 4, 4},
                                         std::vector<std::byte>(4, std::byte{1}));
  auto bad_magic = sealed_frame(env, packet);
  bad_magic[0] ^= std::byte{0xff};
  EXPECT_FALSE(decode_frame_envelope(bad_magic).has_value());

  auto bad_version = sealed_frame(env, packet);
  bad_version[2] ^= std::byte{0xff};
  EXPECT_FALSE(decode_frame_envelope(bad_version).has_value());
}

TEST(FrameEnvelope, ChecksumCatchesEverySingleBitFlip) {
  const auto packet = data_packet_bytes(SegHeader{2, 7, 0, 16, 16},
                                         std::vector<std::byte>(16, std::byte{0x5c}));
  FrameEnvelope env;
  env.seq = 3;
  env.ack_small = 2;
  const auto frame = sealed_frame(env, packet);
  ASSERT_TRUE(verify_frame_checksum(frame));
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto flipped = frame;
    flipped[bit / 8] ^= std::byte(1u << (bit % 8));
    EXPECT_FALSE(verify_frame_checksum(flipped)) << "bit " << bit;
  }
}

TEST(FrameEnvelope, Crc32cKnownAnswerAndStreamingEquivalence) {
  // RFC 3720 check value: crc32c("123456789") == 0xe3069283.
  const char* kat = "123456789";
  const auto bytes = std::as_bytes(std::span(kat, 9));
  EXPECT_EQ(crc32c(bytes), 0xe3069283u);

  // Folding the same bytes in arbitrary pieces must match the one-shot.
  nmad::util::Xoshiro256 rng(15);
  const auto data = [&] {
    std::vector<std::byte> d(333);
    for (auto& b : d) b = std::byte(rng.next() & 0xff);
    return d;
  }();
  const auto oneshot = crc32c(data);
  for (int round = 0; round < 20; ++round) {
    std::uint32_t state = kCrc32cInit;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.next_below(64), data.size() - off);
      state = crc32c_update(state, std::span(data).subspan(off, n));
      off += n;
    }
    EXPECT_EQ(crc32c_finish(state), oneshot);
  }
}

using Crc32cKernel = std::uint32_t (*)(std::uint32_t,
                                      std::span<const std::byte>) noexcept;

/// Every kernel the library can run: the portable one always, the hardware
/// one only where the CPU has it.
std::vector<std::pair<const char*, Crc32cKernel>> crc32c_kernels() {
  std::vector<std::pair<const char*, Crc32cKernel>> out{
      {"portable", &detail::crc32c_portable}};
  if (detail::crc32c_hw_available()) out.emplace_back("hw", &detail::crc32c_hw);
  return out;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  nmad::util::Xoshiro256 rng(seed);
  std::vector<std::byte> d(n);
  for (auto& b : d) b = std::byte(rng.next() & 0xff);
  return d;
}

TEST(FrameEnvelope, Crc32cRfc3720Vectors) {
  // RFC 3720 section B.4 test vectors.
  std::vector<std::byte> zeros(32, std::byte{0x00});
  std::vector<std::byte> ones(32, std::byte{0xff});
  std::vector<std::byte> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) ascending[i] = std::byte(i);

  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
  EXPECT_EQ(crc32c(ascending), 0x46dd794eu);
  for (const auto& [name, kernel] : crc32c_kernels()) {
    EXPECT_EQ(crc32c_finish(kernel(kCrc32cInit, zeros)), 0x8a9136aau) << name;
    EXPECT_EQ(crc32c_finish(kernel(kCrc32cInit, ones)), 0x62a8ab43u) << name;
    EXPECT_EQ(crc32c_finish(kernel(kCrc32cInit, ascending)), 0x46dd794eu) << name;
  }
}

TEST(FrameEnvelope, Crc32cHardwareMatchesPortableAtEveryLengthAndOffset) {
  if (!detail::crc32c_hw_available()) GTEST_SKIP() << "CPU has no SSE4.2 crc32";
  const auto data = random_bytes(4096 + 8, 31);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto piece = std::span(data).subspan(offset, len);
      ASSERT_EQ(detail::crc32c_hw(kCrc32cInit, piece),
                detail::crc32c_portable(kCrc32cInit, piece))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(FrameEnvelope, Crc32cHardwareMatchesPortableFromAnyStateAndSplit) {
  if (!detail::crc32c_hw_available()) GTEST_SKIP() << "CPU has no SSE4.2 crc32";
  nmad::util::Xoshiro256 rng(77);
  const auto data = random_bytes(2000, 78);
  for (int round = 0; round < 200; ++round) {
    // A non-initial state, as when a frame is folded in pieces.
    const auto state = static_cast<std::uint32_t>(rng.next());
    const auto piece = std::span(data).subspan(rng.next_below(data.size()));
    const std::uint32_t expected = detail::crc32c_portable(state, piece);
    ASSERT_EQ(detail::crc32c_hw(state, piece), expected) << "round " << round;

    // The same bytes folded in random pieces, alternating kernels.
    std::uint32_t s = state;
    std::size_t off = 0;
    bool hw = (round & 1) != 0;
    while (off < piece.size()) {
      const std::size_t n =
          std::min<std::size_t>(rng.next_below(40), piece.size() - off);
      const auto part = piece.subspan(off, n);
      s = hw ? detail::crc32c_hw(s, part) : detail::crc32c_portable(s, part);
      hw = !hw;
      off += n;
    }
    ASSERT_EQ(s, expected) << "round " << round;
  }
}

TEST(Wire, RandomizedRoundTripSweep) {
  nmad::util::Xoshiro256 rng(2024);
  for (int round = 0; round < 200; ++round) {
    const auto nseg = 1 + rng.next_below(12);
    BufferPool pool;
    GatherBuilder builder(PacketKind::kData, pool.acquire(), pool.acquire());
    std::vector<SegHeader> headers;
    std::vector<std::vector<std::byte>> payloads;
    for (std::uint64_t i = 0; i < nseg; ++i) {
      const auto len = static_cast<std::uint32_t>(rng.next_below(300));
      const auto offset = static_cast<std::uint32_t>(rng.next_below(1000));
      SegHeader h{static_cast<Tag>(rng.next_below(5)),
                  static_cast<MsgSeq>(rng.next_below(100)), offset, len,
                  offset + len + static_cast<std::uint32_t>(rng.next_below(50))};
      std::vector<std::byte> payload(len);
      for (auto& b : payload) b = std::byte(rng.next() & 0xff);
      // Referenced and staged segments interleave, as in an aggregated
      // packet that mixes in-place and copied payloads.
      if (rng.next_below(2) == 0) {
        builder.add_segment_staged(h, payload);
      } else {
        builder.add_segment(h, payload);
      }
      headers.push_back(h);
      payloads.push_back(std::move(payload));
    }
    const auto wire = std::move(builder).finish().to_bytes();
    const auto decoded = decode(wire);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->segments.size(), nseg);
    for (std::uint64_t i = 0; i < nseg; ++i) {
      EXPECT_EQ(decoded->segments[i].header, headers[i]);
      EXPECT_TRUE(std::equal(payloads[i].begin(), payloads[i].end(),
                             decoded->segments[i].payload.begin()));
    }
  }
}

}  // namespace
