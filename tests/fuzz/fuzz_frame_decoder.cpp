// libFuzzer target for the frame decoder — the code that parses bytes a
// fault-injected (or hostile) wire hands to the RailGuard. The reliability
// layer's promise is that corrupt input is *dropped*, never trusted, so the
// decode path must be total: no crash, no UB, no overread on any input.
//
// Exercises, in the same order as RailGuard::on_frame:
//   1. decode_frame_envelope — fixed-field validation (size/magic/version/
//      ack-only length rules);
//   2. verify_frame_checksum — streaming CRC32C over arbitrary bytes,
//      deliberately run even when the envelope was rejected (the two checks
//      are independent defenses);
//   3. read_packet over the post-envelope bytes, then a walk over every
//      segment — the packet decoder the guard's deliver upcall feeds. An
//      accepted packet's segments must tile its payload exactly.
//
// It is also a differential oracle for the CRC32C kernels: the dispatched
// checksum (the hardware kernel on CPUs that have one) must equal the
// portable kernel's over the whole input and when folded in two pieces at a
// point the input picks, so every length and alignment the fuzzer tries
// drives both kernels.
//
// Build with -DNMAD_FUZZERS=ON (clang only); see tests/fuzz/CMakeLists.txt.
// Seed corpus: tests/fuzz/corpus/ (valid sealed frames plus edge shapes).
#include <cstddef>
#include <cstdint>
#include <span>

#include "proto/crc32c.hpp"
#include "proto/wire.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::byte> frame(
      reinterpret_cast<const std::byte*>(data), size);

  using nmad::proto::crc32c_update;
  using nmad::proto::kCrc32cInit;
  const std::uint32_t whole = crc32c_update(kCrc32cInit, frame);
  if (whole != nmad::proto::detail::crc32c_portable(kCrc32cInit, frame)) {
    __builtin_trap();
  }
  const std::size_t cut = size == 0 ? 0 : data[size - 1] * size / 256;
  if (crc32c_update(crc32c_update(kCrc32cInit, frame.first(cut)),
                    frame.subspan(cut)) != whole) {
    __builtin_trap();
  }

  const auto env = nmad::proto::decode_frame_envelope(frame);
  const bool crc_ok = nmad::proto::verify_frame_checksum(frame);

  if (env.has_value() && crc_ok &&
      (env->flags & nmad::proto::kFrameAckOnly) == 0) {
    const auto packet = frame.subspan(nmad::proto::kFrameEnvelopeBytes);
    if (const auto reader = nmad::proto::read_packet(packet)) {
      // Touch every walked span so ASan sees any overread.
      std::size_t sum = 0;
      const std::byte* next = packet.data() + nmad::proto::packet_wire_size(
                                                  reader->seg_count(), 0);
      for (const nmad::proto::WireSegment seg : *reader) {
        if (seg.payload.data() != next) __builtin_trap();
        next += seg.payload.size();
        for (const std::byte b : seg.payload) sum += std::to_integer<unsigned>(b);
      }
      if (next != packet.data() + packet.size()) __builtin_trap();
      (void)sum;
    }
  }
  return 0;
}
