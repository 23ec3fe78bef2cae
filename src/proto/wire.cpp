#include "proto/wire.hpp"

#include <cstring>
#include "proto/crc32c.hpp"
#include "util/fmt.hpp"

#include "util/panic.hpp"

namespace nmad::proto {

namespace {

void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(std::byte((v >> (8 * i)) & 0xff));
}
void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::byte((v >> (8 * i)) & 0xff));
}

std::uint16_t get_u16(std::span<const std::byte> in, std::size_t off) {
  return static_cast<std::uint16_t>(std::to_integer<unsigned>(in[off]) |
                                    (std::to_integer<unsigned>(in[off + 1]) << 8));
}
std::uint32_t get_u32(std::span<const std::byte> in, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | std::to_integer<std::uint32_t>(in[off + static_cast<std::size_t>(i)]);
  }
  return v;
}

void store_u16(std::byte* p, std::uint16_t v) {
  p[0] = std::byte(v & 0xff);
  p[1] = std::byte((v >> 8) & 0xff);
}
void store_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = std::byte((v >> (8 * i)) & 0xff);
}

void append_packet_header(std::vector<std::byte>& out, PacketKind kind,
                          std::uint16_t seg_count, std::uint32_t payload_len) {
  // PacketHeader: magic(2) version(1) kind(1) seg_count(2) reserved(2)
  //               payload_len(4) reserved(4)
  put_u16(out, kMagic);
  out.push_back(std::byte{kVersion});
  out.push_back(std::byte{static_cast<std::uint8_t>(kind)});
  put_u16(out, seg_count);
  put_u16(out, 0);
  put_u32(out, payload_len);
  put_u32(out, 0);
}

void append_seg_header(std::vector<std::byte>& out, const SegHeader& h) {
  put_u32(out, h.tag);
  put_u32(out, h.msg_seq);
  put_u32(out, h.offset);
  put_u32(out, h.len);
  put_u32(out, h.total_len);
}

void check_segment(const SegHeader& header, std::span<const std::byte> payload) {
  NMAD_ASSERT(payload.size() == header.len, "segment payload/len mismatch");
  NMAD_ASSERT(header.len == 0 ||
                  static_cast<std::uint64_t>(header.offset) + header.len <=
                      header.total_len,
              "segment extent exceeds message length");
}

/// Encode a complete one-segment zero-payload control packet into `out`.
void encode_control_into(std::span<std::byte> out, PacketKind kind,
                         const SegHeader& h) {
  NMAD_ASSERT(out.size() >= kControlPacketBytes,
              "control packet buffer too small");
  std::byte* p = out.data();
  store_u16(p + 0, kMagic);
  p[2] = std::byte{kVersion};
  p[3] = std::byte{static_cast<std::uint8_t>(kind)};
  store_u16(p + 4, 1);   // seg_count
  store_u16(p + 6, 0);   // reserved
  store_u32(p + 8, 0);   // payload_len
  store_u32(p + 12, 0);  // reserved
  store_u32(p + 16, h.tag);
  store_u32(p + 20, h.msg_seq);
  store_u32(p + 24, h.offset);
  store_u32(p + 28, h.len);
  store_u32(p + 32, h.total_len);
}

}  // namespace

// --------------------------------------------------------------------------
// PacketView / GatherBuilder
// --------------------------------------------------------------------------

PacketView PacketView::from_encoded(PooledBuffer head) {
  PacketView view;
  view.head_ = std::move(head);
  return view;
}

PacketView PacketView::alias() const {
  PacketView view;
  view.alias_head_ = head();
  view.inline_ = inline_;
  view.overflow_ = overflow_;
  view.span_count_ = span_count_;
  view.payload_bytes_ = payload_bytes_;
  // copied_bytes_ stays 0: the copy was charged when the original was built.
  return view;
}

std::span<const std::span<const std::byte>> PacketView::payload_spans()
    const noexcept {
  if (!overflow_.empty()) return overflow_;
  return {inline_.data(), span_count_};
}

std::uint64_t PacketView::heap_allocs() const noexcept {
  return (head_.fresh() ? 1 : 0) + (staging_.fresh() ? 1 : 0) +
         (overflow_.empty() ? 0 : 1);
}

void PacketView::gather_into(std::vector<std::byte>& out) const {
  out.reserve(out.size() + wire_size());
  const auto h = head();
  out.insert(out.end(), h.begin(), h.end());
  for (const auto& s : payload_spans()) {
    out.insert(out.end(), s.begin(), s.end());
  }
}

std::vector<std::byte> PacketView::to_bytes() const {
  std::vector<std::byte> out;
  gather_into(out);
  return out;
}

void PacketView::reset() noexcept {
  head_.release();
  staging_.release();
  alias_head_ = {};
  overflow_.clear();
  span_count_ = 0;
  payload_bytes_ = 0;
  copied_bytes_ = 0;
}

GatherBuilder::GatherBuilder(PacketKind kind, PooledBuffer head,
                             PooledBuffer staging)
    : head_(std::move(head)), staging_(std::move(staging)) {
  NMAD_ASSERT(head_.live(), "gather builder needs a live head block");
  head_.storage().clear();
  staging_.storage().clear();
  // Placeholder header; seg_count and payload_len are patched at finish().
  append_packet_header(head_.storage(), kind, 0, 0);
}

void GatherBuilder::push_entry(Entry e) {
  if (e.len == 0) return;
  // Merge with the previous entry when the bytes are contiguous: staged
  // runs always are (the staging block is filled sequentially), and
  // adjacent user segments often are.
  Entry* last = nullptr;
  if (entry_count_ > 0) {
    last = overflow_entries_.empty() ? &inline_entries_[entry_count_ - 1]
                                     : &overflow_entries_.back();
  }
  if (last != nullptr) {
    const bool both_staged = last->data == nullptr && e.data == nullptr;
    const bool contiguous =
        last->data != nullptr && e.data == last->data + last->len;
    if (both_staged || contiguous) {
      last->len += e.len;
      return;
    }
  }
  if (entry_count_ < inline_entries_.size()) {
    inline_entries_[entry_count_] = e;
  } else {
    if (overflow_entries_.empty()) {
      // Spill: move the inline list to the heap (counted in heap_allocs).
      overflow_entries_.assign(inline_entries_.begin(), inline_entries_.end());
    }
    overflow_entries_.push_back(e);
  }
  entry_count_ += 1;
}

void GatherBuilder::add_segment(const SegHeader& header,
                                std::span<const std::byte> payload) {
  check_segment(header, payload);
  NMAD_ASSERT(seg_count_ < 0xffff, "too many segments in one packet");
  append_seg_header(head_.storage(), header);
  seg_count_ += 1;
  payload_bytes_ += payload.size();
  push_entry(Entry{payload.data(), payload.size()});
}

void GatherBuilder::add_segment_staged(const SegHeader& header,
                                       std::span<const std::byte> payload) {
  check_segment(header, payload);
  NMAD_ASSERT(seg_count_ < 0xffff, "too many segments in one packet");
  NMAD_ASSERT(staging_.live() || payload.empty(),
              "staged segment without a staging block");
  append_seg_header(head_.storage(), header);
  seg_count_ += 1;
  payload_bytes_ += payload.size();
  staged_bytes_ += payload.size();
  // The copy the paper charges for aggregation. The span is recorded as a
  // staged range (not a pointer) because the staging vector may reallocate
  // as later segments are appended; finish() resolves it.
  auto& stage = staging_.storage();
  stage.insert(stage.end(), payload.begin(), payload.end());
  push_entry(Entry{nullptr, payload.size()});
}

PacketView GatherBuilder::finish() && {
  NMAD_ASSERT(seg_count_ > 0, "encoding packet with no segments");
  auto& head = head_.storage();
  store_u16(head.data() + 4, static_cast<std::uint16_t>(seg_count_));
  store_u32(head.data() + 8, static_cast<std::uint32_t>(payload_bytes_));

  PacketView view;
  view.head_ = std::move(head_);
  view.staging_ = std::move(staging_);
  view.payload_bytes_ = payload_bytes_;
  view.copied_bytes_ = staged_bytes_;

  const std::span<const Entry> entries =
      overflow_entries_.empty()
          ? std::span<const Entry>(inline_entries_.data(), entry_count_)
          : std::span<const Entry>(overflow_entries_);
  const std::byte* stage_base = view.staging_.bytes().data();
  std::size_t stage_off = 0;
  if (!overflow_entries_.empty()) view.overflow_.reserve(entries.size());
  for (const Entry& e : entries) {
    std::span<const std::byte> s;
    if (e.data == nullptr) {
      s = std::span<const std::byte>(stage_base + stage_off, e.len);
      stage_off += e.len;
    } else {
      s = std::span<const std::byte>(e.data, e.len);
    }
    if (!view.overflow_.empty() || entries.size() > PacketView::kInlineSpans) {
      view.overflow_.push_back(s);
    } else {
      view.inline_[view.span_count_] = s;
    }
    view.span_count_ += 1;
  }
  NMAD_ASSERT(stage_off == view.staging_.size(),
              "staged ranges do not cover the staging block");
  return view;
}

// --------------------------------------------------------------------------
// Frame envelope
// --------------------------------------------------------------------------

void seal_frame_envelope(std::span<std::byte> out, const FrameEnvelope& env,
                         std::span<const std::byte> head,
                         std::span<const std::span<const std::byte>> payloads) {
  NMAD_ASSERT(out.size() >= kFrameEnvelopeBytes, "envelope buffer too small");
  std::byte* p = out.data();
  store_u16(p + 0, kFrameMagic);
  p[2] = std::byte{kFrameVersion};
  p[3] = std::byte{env.flags};
  store_u32(p + 4, env.seq);
  store_u32(p + 8, env.ack_small);
  store_u32(p + 12, env.ack_large);
  store_u32(p + 16, env.epoch);
  // Checksum the envelope with the crc field absent, then the packet bytes
  // span by span — the streamed fold that keeps the gather path zero-copy.
  std::uint32_t crc = crc32c_update(kCrc32cInit, std::span<const std::byte>(p, 20));
  crc = crc32c_update(crc, head);
  for (const auto& s : payloads) crc = crc32c_update(crc, s);
  store_u32(p + 20, crc32c_finish(crc));
}

util::Expected<FrameEnvelope> decode_frame_envelope(std::span<const std::byte> frame) {
  if (frame.size() < kFrameEnvelopeBytes) {
    return util::make_error(
        util::sformat("frame too short for envelope: %zu bytes", frame.size()));
  }
  if (get_u16(frame, 0) != kFrameMagic) {
    return util::make_error("bad frame magic");
  }
  const auto version = std::to_integer<std::uint8_t>(frame[2]);
  if (version != kFrameVersion) {
    return util::make_error(util::sformat("unsupported frame version %u", version));
  }
  FrameEnvelope env;
  env.flags = std::to_integer<std::uint8_t>(frame[3]);
  env.seq = get_u32(frame, 4);
  env.ack_small = get_u32(frame, 8);
  env.ack_large = get_u32(frame, 12);
  env.epoch = get_u32(frame, 16);
  env.checksum = get_u32(frame, 20);
  if ((env.flags & kFrameAckOnly) != 0 && frame.size() != kFrameEnvelopeBytes) {
    return util::make_error("ack-only frame carries payload bytes");
  }
  if ((env.flags & kFrameAckOnly) == 0 && frame.size() == kFrameEnvelopeBytes) {
    return util::make_error("data frame carries no packet");
  }
  constexpr std::uint8_t kControlFlags =
      kFrameProbe | kFrameProbeReply | kFrameReconnect | kFrameReconnectAck;
  if ((env.flags & kControlFlags) != 0 && (env.flags & kFrameAckOnly) == 0) {
    return util::make_error("probe/handshake frame must be envelope-only");
  }
  return env;
}

bool verify_frame_checksum(std::span<const std::byte> frame) noexcept {
  if (frame.size() < kFrameEnvelopeBytes) return false;
  std::uint32_t crc = crc32c_update(kCrc32cInit, frame.first(20));
  crc = crc32c_update(crc, frame.subspan(kFrameEnvelopeBytes));
  return crc32c_finish(crc) == get_u32(frame, 20);
}

namespace {

SegHeader read_seg_header(const std::byte* p) noexcept {
  const std::span<const std::byte> in(p, kSegHeaderBytes);
  return SegHeader{get_u32(in, 0), get_u32(in, 4), get_u32(in, 8),
                   get_u32(in, 12), get_u32(in, 16)};
}

}  // namespace

WireSegment PacketReader::Iterator::operator*() const noexcept {
  const SegHeader h = read_seg_header(header());
  return WireSegment{h, std::span<const std::byte>(wire_ + payload_off_, h.len)};
}

PacketReader::Iterator& PacketReader::Iterator::operator++() noexcept {
  payload_off_ += read_seg_header(header()).len;
  index_ += 1;
  return *this;
}

PacketReader::Iterator PacketReader::begin() const noexcept {
  return Iterator(wire_.data(), packet_wire_size(seg_count_, 0), 0);
}

PacketReader::Iterator PacketReader::end() const noexcept {
  return Iterator(wire_.data(), 0, seg_count_);
}

util::Expected<PacketReader> read_packet(std::span<const std::byte> wire) {
  if (wire.size() < kPacketHeaderBytes) {
    return util::make_error(util::sformat("packet too short: %zu bytes", wire.size()));
  }
  if (get_u16(wire, 0) != kMagic) {
    return util::make_error("bad packet magic");
  }
  const auto version = std::to_integer<std::uint8_t>(wire[2]);
  if (version != kVersion) {
    return util::make_error(util::sformat("unsupported packet version %u", version));
  }
  const auto kind_raw = std::to_integer<std::uint8_t>(wire[3]);
  if (kind_raw < 1 || kind_raw > 3) {
    return util::make_error(util::sformat("unknown packet kind %u", kind_raw));
  }
  const std::uint16_t seg_count = get_u16(wire, 4);
  const std::uint32_t payload_len = get_u32(wire, 8);
  const std::size_t expected = packet_wire_size(seg_count, payload_len);
  if (wire.size() != expected) {
    return util::make_error(util::sformat(
        "packet size mismatch: got %zu bytes, header implies %zu", wire.size(),
        expected));
  }
  if (seg_count == 0) {
    return util::make_error("packet with zero segments");
  }
  std::uint64_t payload_sum = 0;
  for (std::size_t i = 0; i < seg_count; ++i) {
    const SegHeader h =
        read_seg_header(wire.data() + kPacketHeaderBytes + i * kSegHeaderBytes);
    payload_sum += h.len;
    if (payload_sum > payload_len) {
      return util::make_error("segment lengths exceed packet payload");
    }
    if (h.len > 0 && static_cast<std::uint64_t>(h.offset) + h.len > h.total_len) {
      return util::make_error("segment extent exceeds message length");
    }
  }
  if (payload_sum != payload_len) {
    return util::make_error("segment lengths do not cover packet payload");
  }
  return PacketReader(wire, static_cast<PacketKind>(kind_raw), seg_count);
}

PacketView encode_data_packet_view(BufferPool& pool, const SegHeader& header,
                                   std::span<const std::byte> payload) {
  GatherBuilder b(PacketKind::kData, pool.acquire());
  b.add_segment(header, payload);
  return std::move(b).finish();
}

void encode_rdv_req_into(std::span<std::byte> out, Tag tag, MsgSeq seq,
                         std::uint32_t total_len) {
  encode_control_into(out, PacketKind::kRdvReq, SegHeader{tag, seq, 0, 0, total_len});
}

void encode_rdv_ack_into(std::span<std::byte> out, Tag tag, MsgSeq seq) {
  encode_control_into(out, PacketKind::kRdvAck, SegHeader{tag, seq, 0, 0, 0});
}

PacketView encode_rdv_req_view(BufferPool& pool, Tag tag, MsgSeq seq,
                               std::uint32_t total_len) {
  PooledBuffer head = pool.acquire();
  head.storage().resize(kControlPacketBytes);
  encode_rdv_req_into(head.storage(), tag, seq, total_len);
  return PacketView::from_encoded(std::move(head));
}

PacketView encode_rdv_ack_view(BufferPool& pool, Tag tag, MsgSeq seq) {
  PooledBuffer head = pool.acquire();
  head.storage().resize(kControlPacketBytes);
  encode_rdv_ack_into(head.storage(), tag, seq);
  return PacketView::from_encoded(std::move(head));
}

}  // namespace nmad::proto
