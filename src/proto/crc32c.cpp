#include "proto/crc32c.hpp"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace nmad::proto {

namespace {

/// Slicing-by-4 tables for the reflected Castagnoli polynomial, built at
/// static-init time (256 * 4 u32 — fits comfortably in L1).
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  Tables() {
    constexpr std::uint32_t kPoly = 0x82f63b78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xffu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xffu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xffu];
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::uint32_t state,
                              std::span<const std::byte> data) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = state;
  const Tables& tb = tables();
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = tb.t[3][crc & 0xffu] ^ tb.t[2][(crc >> 8) & 0xffu] ^
          tb.t[1][(crc >> 16) & 0xffu] ^ tb.t[0][(crc >> 24) & 0xffu];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xffu];
    --n;
  }
  return crc;
}

#if defined(__x86_64__)

bool crc32c_hw_available() noexcept {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return ok;
}

// Compiled for SSE4.2 regardless of the build's baseline ISA; only reached
// once crc32c_hw_available() has confirmed the CPU executes `crc32`.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::uint32_t state, std::span<const std::byte> data) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = state;
  while (n >= 8) {
    std::uint64_t v;
    __builtin_memcpy(&v, p, 8);
    crc = static_cast<std::uint32_t>(_mm_crc32_u64(crc, v));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc;
}

#else

bool crc32c_hw_available() noexcept { return false; }

std::uint32_t crc32c_hw(std::uint32_t state,
                        std::span<const std::byte> data) noexcept {
  return crc32c_portable(state, data);
}

#endif

}  // namespace detail

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::byte> data) noexcept {
  return detail::crc32c_hw_available() ? detail::crc32c_hw(state, data)
                                       : detail::crc32c_portable(state, data);
}

std::uint32_t crc32c(std::span<const std::byte> data) noexcept {
  return crc32c_finish(crc32c_update(kCrc32cInit, data));
}

}  // namespace nmad::proto
