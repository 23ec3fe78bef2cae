// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// frame-envelope checksum (iSCSI/ext4 flavor, chosen over CRC32/zlib for
// its better error-detection properties on short frames).
//
// The implementation is streaming: a frame's checksum is folded over the
// envelope prefix, the packet's header block and each payload span in turn,
// so the scatter-gather packet path never flattens a packet just to
// checksum it (the zero-copy contract of proto/wire.hpp is preserved).
//
// On x86-64 the kernel is chosen once at run time: the SSE4.2 `crc32`
// instruction when the CPU has it, otherwise (and on every other
// architecture) a portable slicing-by-4 table loop. Both give identical
// values; the build's baseline ISA plays no part.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace nmad::proto {

inline constexpr std::uint32_t kCrc32cInit = 0xffffffffu;

/// Fold `data` into a running CRC32C state. Start from kCrc32cInit and
/// finalize with crc32c_finish once every piece has been folded in.
[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t state,
                                          std::span<const std::byte> data) noexcept;

[[nodiscard]] constexpr std::uint32_t crc32c_finish(std::uint32_t state) noexcept {
  return state ^ 0xffffffffu;
}

/// One-shot convenience over a single contiguous buffer.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data) noexcept;

/// The two kernels behind crc32c_update, exposed so tests and benchmarks can
/// compare them. Not a switch: crc32c_update always dispatches itself.
namespace detail {
[[nodiscard]] std::uint32_t crc32c_portable(
    std::uint32_t state, std::span<const std::byte> data) noexcept;
/// Hardware kernel; call only when crc32c_hw_available() is true.
[[nodiscard]] std::uint32_t crc32c_hw(std::uint32_t state,
                                      std::span<const std::byte> data) noexcept;
/// True when the CPU executes the SSE4.2 `crc32` instruction (checked once).
[[nodiscard]] bool crc32c_hw_available() noexcept;
}  // namespace detail

}  // namespace nmad::proto
