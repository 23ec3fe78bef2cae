// Simulated NIC driver: implements the Driver interface on top of the
// discrete-event platform, with distinct PIO and DMA semantics.
//
// Eager (small track) sends model Programmed I/O: the host CPU is occupied
// for the send overhead plus the full host->NIC copy, so concurrent eager
// sends on different rails of one node serialize — the effect that defeats
// naive multi-rail balancing for small messages (paper §3.2).
//
// Large-track sends model DMA: the CPU is occupied only while programming
// the descriptor; the transfer itself is a fluid flow across the NIC link
// and both hosts' I/O buses (FairShareNet), so concurrent DMA transfers
// genuinely overlap and contend only for bus capacity.
//
// Thread safety: all state (track status, stats) is plain data driven by
// engine events; post_send and the event callbacks run with the world
// progress mutex held in threaded mode (engine steppers are serialized by
// it), so no internal locking is needed. Read stats only under that mutex
// while the progress thread is live.
#pragma once

#include <array>
#include <cstdint>

#include "drv/driver.hpp"
#include "drv/sim_world.hpp"

namespace nmad::drv {

class SimDriver final : public Driver {
 public:
  /// Construct an endpoint on `node`. Use SimWorld::add_link, which wires
  /// up the peer and the link constraints.
  SimDriver(SimWorld& world, NodeId node, netmodel::NicProfile profile,
            sim::ConstraintId tx_link);

  [[nodiscard]] const Capabilities& caps() const noexcept override { return caps_; }
  [[nodiscard]] bool send_idle(Track track) const noexcept override;
  void post_send(SendDesc desc, Callback on_sent) override;
  void set_deliver(DeliverFn deliver) override;
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const override;

  [[nodiscard]] const netmodel::NicProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] SimDriver* peer() const noexcept { return peer_; }
  /// The FairShareNet constraint this endpoint's outgoing DMA flows cross
  /// (its direction of the NIC link). Exposed so scenario players
  /// (sim/net_scenario.hpp) can shape or congest a specific rail.
  [[nodiscard]] sim::ConstraintId tx_link() const noexcept { return tx_link_; }

  // --- statistics (reported by benches, asserted by tests) ---------------
  struct Stats {
    std::uint64_t eager_packets = 0;
    std::uint64_t eager_bytes = 0;  ///< wire bytes incl. headers
    std::uint64_t dma_packets = 0;
    std::uint64_t dma_bytes = 0;
    std::uint64_t delivered_packets = 0;
    /// Times the progression engine polled this NIC because a packet
    /// arrived on a *sibling* rail of the same node — the per-rail cost
    /// behind the paper's Fig. 6 polling gap. A rail that is connected but
    /// carries no traffic still accumulates polls; a silently-dead rail
    /// shows zero here *and* zero bytes (what CI's bench-smoke gate keys on).
    std::uint64_t polls = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  friend class SimWorld;

  void send_eager(SendDesc desc);
  void send_dma(SendDesc desc);
  /// Gather `desc` (envelope + packet) into a wire buffer taken from this
  /// endpoint's recycled list; returns its index in wires_.
  std::uint32_t take_wire(SendDesc& desc);
  /// The track's frame left the host: free the track, then run the
  /// scheduler's on_sent.
  void sent(Track track);
  /// Called on the *receiving* endpoint when the peer's wire buffer `wire`
  /// arrives; the buffer goes back to the peer once delivered.
  void arrive(Track track, std::uint32_t wire);

  SimWorld& world_;
  NodeId node_;
  netmodel::NicProfile profile_;
  Capabilities caps_;
  sim::ConstraintId tx_link_;
  SimDriver* peer_ = nullptr;
  DeliverFn deliver_;
  std::array<bool, kTrackCount> busy_{{false, false}};
  /// The scheduler's completion callback for the frame on each track (a
  /// track holds one frame at a time). Kept here so every simulator event
  /// closure is just [this, index] and fits std::function's inline storage.
  std::array<Callback, kTrackCount> on_sent_;
  /// Frames on the simulated wire, from post until the peer's deliver
  /// upcall returns. Buffers are recycled through free_wires_ with their
  /// capacity; an outer-vector regrowth moves them without moving bytes.
  std::vector<std::vector<std::byte>> wires_;
  std::vector<std::uint32_t> free_wires_;
  /// Enforces FIFO delivery on the eager track even when CPU queueing
  /// reorders nominal completion instants.
  sim::TimeNs last_eager_delivery_ = 0;
  Stats stats_;
};

}  // namespace nmad::drv
