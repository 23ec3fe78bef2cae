// Analytic transfer-time predictions derived from a NicProfile.
//
// This is the closed-form reference the simulator is checked against:
// tests/test_transfer_model.cpp runs isolated transfers (no contention)
// through the simulated platform and requires them to land within a few
// percent of these formulas. No library code calls it.
//
// The analytic model deliberately ignores bus contention — contention is an
// emergent property of concurrent flows and is what the simulator computes;
// strategies reason about isolated-rail costs, exactly like the paper's
// boot-time sampling does.
#pragma once

#include <cstdint>
#include <utility>

#include "netmodel/nic_profile.hpp"

namespace nmad::netmodel {

class TransferModel {
 public:
  explicit TransferModel(NicProfile profile) : profile_(std::move(profile)) {}

  [[nodiscard]] const NicProfile& profile() const noexcept { return profile_; }

  /// Predicted one-way time (µs) for an isolated eager (PIO) packet of
  /// `payload_bytes`, excluding progression poll costs on other rails.
  [[nodiscard]] double eager_us(std::uint64_t payload_bytes) const noexcept;

  /// Predicted one-way time (µs) for an isolated rendezvous transfer of
  /// `payload_bytes` (control handshake + DMA), no contention.
  [[nodiscard]] double rendezvous_us(std::uint64_t payload_bytes) const noexcept;

  /// Predicted one-way time choosing the path the driver would choose.
  [[nodiscard]] double transfer_us(std::uint64_t payload_bytes) const noexcept;

  /// Marginal cost of one extra byte on the bulk path (µs/byte); the
  /// reciprocal of the DMA bandwidth.
  [[nodiscard]] double bulk_cost_per_byte_us() const noexcept;

 private:
  NicProfile profile_;
};

}  // namespace nmad::netmodel
