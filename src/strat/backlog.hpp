// Shared machinery for the built-in strategies: the segment backlog, the
// parked-until-granted large messages, the granted-chunk queue, and the
// packet-building helpers (single-segment eager, aggregated eager, DMA
// chunk). Each concrete strategy only supplies policy: which rail may take
// small segments, whether they are aggregated, and how a granted large
// message is split into chunks.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "strat/strategy.hpp"
#include "util/ring_queue.hpp"

namespace nmad::strat {

class BacklogBase : public Strategy {
 public:
  explicit BacklogBase(StrategyConfig cfg) : cfg_(cfg) {}

  void on_submit_small(core::Gate& gate, SmallEntry entry) override;
  void on_submit_large(core::Gate& gate, LargeEntry entry) override;
  void on_rdv_granted(core::Gate& gate, core::MsgKey key) override;
  [[nodiscard]] bool has_backlog() const noexcept override;
  /// Chunks pinned to the dead rail float to "first free NIC" so the
  /// survivors drain them.
  void on_rail_dead(core::Gate& gate, core::RailIndex rail) override;
  /// Drop the whole backlog: the requests it belongs to are being failed.
  void on_gate_failed(core::Gate& gate) override;

 protected:
  /// A granted piece of a large message, ready for a DMA track.
  struct Chunk {
    core::SendRequest* req = nullptr;
    std::span<const std::byte> data;
    std::uint32_t msg_offset = 0;
    /// Rail that must carry this chunk, or kAnyRail for "first free NIC".
    static constexpr std::int32_t kAnyRail = -1;
    std::int32_t rail_affinity = kAnyRail;
  };

  /// Policy hook: a message's rendezvous was granted; turn its large
  /// segments into chunks (push onto chunks_, possibly splitting).
  virtual void plan_grant(core::Gate& gate, core::MsgKey key,
                          std::vector<LargeEntry> entries) = 0;

  /// Pop the first small entry and emit it as one zero-copy eager packet
  /// (no rewriting — the paper's "regular" path): a pooled header block
  /// from `gate` plus a span referencing the segment in place.
  [[nodiscard]] std::optional<PacketPlan> pack_small_single(core::Gate& gate,
                                                           core::Rail& rail);

  /// Opportunistic aggregation: drain queued small entries into one eager
  /// packet while the payload fits both the rail's eager limit and the
  /// aggregation limit; charges the memcpy cost to the packet (paper §3.1:
  /// "copy the segments into a contiguous memory area and send them as a
  /// single chunk"; the copy overhead "is very low" but not zero). The
  /// staging buffer is recycled from `gate`'s pool; a packet that would
  /// carry a single segment falls back to the zero-copy single path.
  [[nodiscard]] std::optional<PacketPlan> pack_small_aggregated(core::Gate& gate,
                                                               core::Rail& rail);

  /// Emit the first queued chunk admissible on `rail` as a zero-copy DMA
  /// packet.
  [[nodiscard]] std::optional<PacketPlan> pack_chunk(core::Gate& gate,
                                                     core::Rail& rail);

  /// Split `entry` across `shares` (railindex, weight) pairs, honoring
  /// cfg_.min_chunk, and queue the chunks with rail affinity.
  void push_split_chunks(const LargeEntry& entry,
                         const std::vector<std::pair<std::int32_t, double>>& shares);

  /// Queue one unsplit chunk covering the whole entry.
  void push_whole_chunk(const LargeEntry& entry, std::int32_t affinity);

  /// Refresh the backlog-depth gauge (small + parked + granted chunks).
  void update_depth() noexcept;

  StrategyConfig cfg_;
  util::RingQueue<SmallEntry> small_;
  std::map<core::MsgKey, std::vector<LargeEntry>> parked_;
  std::deque<Chunk> chunks_;
  /// Large entries currently parked (avoids walking parked_ per update).
  std::size_t parked_count_ = 0;
  /// Cap on segments per aggregated packet (bounds header overhead).
  static constexpr std::size_t kMaxAggregatedSegments = 64;
};

}  // namespace nmad::strat
