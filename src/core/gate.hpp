// Gate: the communication endpoint towards one peer node, bundling every
// rail (NIC link) that reaches that peer, plus the per-peer scheduling
// state. The paper's optimization strategies apply "to the whole
// communication flow between pairs of machines" — the gate is that pair's
// flow, and each gate owns its own strategy instance.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rail_guard.hpp"
#include "core/request.hpp"
#include "core/types.hpp"
#include "drv/driver.hpp"
#include "obs/metrics.hpp"
#include "proto/pool.hpp"
#include "proto/reassembly.hpp"
#include "strat/rate_estimator.hpp"
#include "strat/strategy.hpp"
#include "util/ring_queue.hpp"

namespace nmad::obs {
class MetricsRegistry;
}  // namespace nmad::obs

namespace nmad::core {

/// One rail of a gate: a driver endpoint plus per-rail accounting.
class Rail {
 public:
  Rail(drv::Driver& driver, RailIndex index) : driver_(&driver), index_(index) {}

  [[nodiscard]] drv::Driver& driver() noexcept { return *driver_; }
  [[nodiscard]] const drv::Capabilities& caps() const noexcept {
    return driver_->caps();
  }
  [[nodiscard]] RailIndex index() const noexcept { return index_; }
  [[nodiscard]] bool idle(drv::Track track) const noexcept {
    return driver_->send_idle(track);
  }
  /// Rail health (see core/reliability.hpp). Dead rails are quiesced; only
  /// healthy ones take new traffic from the pump.
  [[nodiscard]] bool alive() const noexcept { return guard.alive(); }
  [[nodiscard]] bool healthy() const noexcept { return guard.healthy(); }

  /// Per-rail reliability layer (sealing, ack/retransmit, health state).
  /// Initialized by the scheduler in add_gate.
  RailGuard guard;

  /// Transmit accounting, per track (indexed by drv::Track).
  struct TxStats {
    std::uint64_t packets[drv::kTrackCount] = {0, 0};
    std::uint64_t payload_bytes[drv::kTrackCount] = {0, 0};
    /// Data segments carried (aggregated packets carry several).
    std::uint64_t segments = 0;
    /// Control packets (rendezvous REQ/ACK) sent on this rail.
    std::uint64_t control_packets = 0;
  };
  TxStats tx;

  /// Rail-level event counters (obs layer; compile out with NMAD_METRICS=OFF).
  /// Maintained by the scheduler on every packet it posts to this rail.
  struct Metrics {
    /// Every packet posted (data + control, both tracks).
    obs::Counter packets_sent;
    /// Wire bytes posted (encoded packets, headers included).
    obs::Counter bytes_sent;
    /// Data payload bytes per track.
    obs::Counter small_payload_bytes;
    obs::Counter large_payload_bytes;
    /// Posts on the eager track (Programmed I/O path, incl. control).
    obs::Counter pio_transfers;
    /// Posts on the large track (rendezvous/DMA path).
    obs::Counter rdv_transfers;
    /// Rendezvous REQ/ACK control packets.
    obs::Counter control_packets;
    /// Data segments carried (an aggregated packet carries several).
    obs::Counter segments_sent;
    /// Eager data packets that coalesced >= 2 backlog segments / exactly 1.
    obs::Counter aggregation_hits;
    obs::Counter aggregation_misses;
    /// Posts that found the whole NIC idle (idle -> busy transitions).
    obs::Counter nic_wakeups;
    /// Payload bytes memcpy'd while building the posted packets. Only the
    /// aggregation staging copy is charged (paper §3.1); the zero-copy
    /// paths (single-segment eager, DMA chunks, control) contribute zero.
    obs::Counter bytes_copied;
    /// Heap allocations on the packet-build hot path (pool misses + span
    /// list spills); ~zero in steady state once the pools are warm.
    obs::Counter allocs_hot_path;
    /// Wire size of every posted packet.
    obs::Histogram packet_size;

    void register_into(obs::MetricsRegistry& registry,
                       const std::string& prefix) const;
  };
  Metrics metrics;

 private:
  drv::Driver* driver_;
  RailIndex index_;
};

class Scheduler;

class Gate {
 public:
  Gate(GateId id, std::vector<drv::Driver*> drivers,
       std::unique_ptr<strat::Strategy> strategy, strat::StrategyConfig config);

  [[nodiscard]] GateId id() const noexcept { return id_; }
  [[nodiscard]] std::span<Rail> rails() noexcept { return rails_; }
  [[nodiscard]] std::size_t rail_count() const noexcept { return rails_.size(); }
  [[nodiscard]] Rail& rail(RailIndex i);

  [[nodiscard]] strat::Strategy& strategy() noexcept { return *strategy_; }
  [[nodiscard]] const strat::StrategyConfig& config() const noexcept { return config_; }

  /// Largest segment that may travel on the eager track of *any* rail
  /// (payload bytes); larger segments use the rendezvous path.
  [[nodiscard]] std::uint32_t small_threshold() const noexcept { return small_threshold_; }

  /// Rail with the lowest estimated latency (the paper's v2 strategy sends
  /// aggregated small messages there — Quadrics on the paper's platform).
  [[nodiscard]] RailIndex fastest_rail() const noexcept { return fastest_rail_; }

  /// Re-pick fastest_rail() among the rails still alive (after a death).
  void recompute_fastest();

  /// True while every rail is down and the gate fails submissions fast.
  /// Set when the last rail dies (pending requests are failed then);
  /// cleared when a rail completes a reconnect handshake.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  // --- packet buffer arenas -------------------------------------------------
  /// Pool of header blocks (packet header + seg headers; also whole
  /// control packets). Blocks recycle when the driver finishes the send.
  [[nodiscard]] proto::BufferPool& header_pool() noexcept { return header_pool_; }
  /// Pool of aggregation staging buffers (the paper's contiguous copy
  /// area); sized to the strategy's aggregation limit.
  [[nodiscard]] proto::BufferPool& staging_pool() noexcept { return staging_pool_; }
  /// An empty contribution list for a PacketPlan: one a credited packet
  /// handed back (capacity kept) when there is one.
  [[nodiscard]] std::vector<strat::Contribution> take_contribs();
  /// Return a credited packet's contribution list for reuse.
  void recycle_contribs(std::vector<strat::Contribution> contribs);

  // --- split ratios ---------------------------------------------------------
  /// Install per-rail bulk-bandwidth weights (from boot-time sampling).
  /// Weights are normalized internally; they need not sum to 1. Under
  /// adaptive striping these become the *prior* the live estimates blend
  /// against, not the final word.
  void set_ratios(std::vector<double> weights);
  /// Normalized weight of rail `i` (defaults to driver capability
  /// bandwidths when sampling has not run; re-derived online when
  /// config().adaptive.enabled).
  [[nodiscard]] double ratio(RailIndex i) const;
  [[nodiscard]] const std::vector<double>& ratios() const noexcept { return ratios_; }

  // --- adaptive striping ----------------------------------------------------
  /// Live per-rail rate estimates (strat/rate_estimator.hpp). Always fed;
  /// only consulted for ratios when config().adaptive.enabled.
  [[nodiscard]] strat::RateEstimator& estimator() noexcept { return estimator_; }
  /// Re-derive split ratios (and the pump's rail order) from the live
  /// estimates if the optimization window elapsed. Called from the
  /// scheduler's pump under the progress lock; no-op unless adaptive
  /// striping is enabled.
  void maybe_refresh_ratios(sim::TimeNs now);
  /// Rails in pump-offer order: descending effective rate under adaptive
  /// striping (greedy strategies drain the fast rails first), index order
  /// otherwise.
  [[nodiscard]] const std::vector<RailIndex>& rail_order() const noexcept {
    return rail_order_;
  }

  /// Adaptive ratio-refresh outcomes (obs layer).
  struct AdaptiveMetrics {
    obs::Counter ratio_updates;  ///< re-derived ratios installed
    obs::Counter ratio_holds;    ///< re-derivations skipped by hysteresis
    void register_into(obs::MetricsRegistry& registry,
                       const std::string& prefix) const;
  };
  AdaptiveMetrics adaptive_metrics;

 private:
  friend class Scheduler;

  /// Receive-side state of one in-flight incoming message.
  struct Incoming {
    std::uint32_t total_len = 0;
    bool total_known = false;
    bool rdv_seen = false;
    bool rdv_acked = false;
    bool data_complete = false;
    /// `assembly` has been pointed at its destination.
    bool assembling = false;
    RecvRequest* recv = nullptr;
    /// Unexpected-message storage (assembly writes here until a receive is
    /// posted, then rebinds into the receive's segments).
    std::vector<std::byte> temp;
    proto::MessageAssembly assembly{std::span<std::byte>{}};
  };
  using IncomingTable = std::map<MsgKey, Incoming>;

  /// The incoming entry for `key`, created if absent. New entries reuse a
  /// node recycled by erase_incoming, so steady-state matching allocates
  /// nothing.
  Incoming& incoming_at(MsgKey key);
  /// Drop a finished entry, keeping its node for the next incoming_at.
  void erase_incoming(IncomingTable::iterator it);

  GateId id_;
  std::vector<Rail> rails_;
  std::unique_ptr<strat::Strategy> strategy_;
  strat::StrategyConfig config_;
  proto::BufferPool header_pool_;
  proto::BufferPool staging_pool_;
  std::vector<std::vector<strat::Contribution>> spare_contribs_;
  std::uint32_t small_threshold_ = 0;
  RailIndex fastest_rail_ = 0;
  std::vector<double> ratios_;
  /// Boot-time prior: the last set_ratios() weights, normalized, plus the
  /// same vector scaled to MB/s currency for blending with live estimates.
  std::vector<double> prior_ratios_;
  std::vector<double> prior_mbps_;
  std::vector<RailIndex> rail_order_;
  strat::RateEstimator estimator_;
  sim::TimeNs last_ratio_refresh_ = 0;

  // Send side.
  std::map<Tag, MsgSeq> next_send_seq_;
  // Receive side.
  std::map<Tag, MsgSeq> next_recv_seq_;
  IncomingTable incoming_;
  std::vector<IncomingTable::node_type> spare_incoming_;
  // Rendezvous control packets awaiting an idle eager track.
  util::RingQueue<drv::SendDesc> control_;
  // Un-acked frames surrendered by dead rails, awaiting repost on a
  // survivor (drained by the pump ahead of new strategy work).
  std::deque<RailGuard::PendingFrame> resend_;
  // Every rail died: requests failed, no further traffic.
  bool failed_ = false;
  // Pump re-entrancy guard.
  bool pumping_ = false;
  bool repump_ = false;
  // A deferred pump is already queued for this gate.
  bool pump_scheduled_ = false;
};

}  // namespace nmad::core
