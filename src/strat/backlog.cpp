#include "strat/backlog.hpp"

#include <algorithm>
#include <utility>

#include "core/gate.hpp"
#include "proto/wire.hpp"
#include "util/panic.hpp"

namespace nmad::strat {

namespace {

proto::SegHeader header_for(const core::SendRequest& req, std::uint32_t msg_offset,
                            std::uint32_t len) {
  return proto::SegHeader{req.tag(), req.seq(), msg_offset, len, req.total_len()};
}

}  // namespace

void BacklogBase::update_depth() noexcept {
  metrics_.backlog_depth.set(
      static_cast<std::int64_t>(small_.size() + parked_count_ + chunks_.size()));
}

void BacklogBase::on_submit_small(core::Gate& /*gate*/, SmallEntry entry) {
  small_.push_back(entry);
  metrics_.small_submitted.inc();
  update_depth();
}

void BacklogBase::on_submit_large(core::Gate& /*gate*/, LargeEntry entry) {
  parked_[entry.req->key()].push_back(entry);
  parked_count_ += 1;
  metrics_.large_submitted.inc();
  update_depth();
}

void BacklogBase::on_rdv_granted(core::Gate& gate, core::MsgKey key) {
  auto it = parked_.find(key);
  if (it == parked_.end()) {
    // A grant for a message we no longer hold. With failover and rail
    // resurrection in play this is legal noise, not a protocol error: a
    // dead rail's retained control frames are replayed on a survivor, so
    // the duplicate of a grant that already landed — or a grant for a
    // request that failed during a total outage — can arrive here. Grants
    // are idempotent; only the first one moves chunks.
    metrics_.stale_grants.inc();
    return;
  }
  std::vector<LargeEntry> entries = std::move(it->second);
  parked_.erase(it);
  parked_count_ -= entries.size();
  metrics_.rdv_grants.inc();
  plan_grant(gate, key, std::move(entries));
  update_depth();
}

bool BacklogBase::has_backlog() const noexcept {
  return !small_.empty() || !parked_.empty() || !chunks_.empty();
}

void BacklogBase::on_rail_dead(core::Gate& /*gate*/, core::RailIndex rail) {
  const auto idx = static_cast<std::int32_t>(rail);
  for (Chunk& c : chunks_) {
    if (c.rail_affinity == idx) c.rail_affinity = Chunk::kAnyRail;
  }
}

void BacklogBase::on_gate_failed(core::Gate& /*gate*/) {
  small_.clear();
  parked_.clear();
  parked_count_ = 0;
  chunks_.clear();
  update_depth();
}

std::optional<PacketPlan> BacklogBase::pack_small_single(core::Gate& gate,
                                                         core::Rail& /*rail*/) {
  if (small_.empty()) return std::nullopt;
  SmallEntry entry = small_.front();
  small_.pop_front();

  // Zero-copy: pooled header block + a span referencing the segment in
  // place; the user memory rides to the driver untouched.
  const auto len = static_cast<std::uint32_t>(entry.data.size());
  PacketPlan plan;
  plan.contribs = gate.take_contribs();
  plan.desc = drv::SendDesc{
      drv::Track::kSmall,
      proto::encode_data_packet_view(
          gate.header_pool(), header_for(*entry.req, entry.msg_offset, len),
          entry.data)};
  plan.contribs.push_back(Contribution{entry.req, len});
  metrics_.aggregation_misses.inc();
  update_depth();
  return plan;
}

std::optional<PacketPlan> BacklogBase::pack_small_aggregated(core::Gate& gate,
                                                             core::Rail& rail) {
  if (small_.empty()) return std::nullopt;

  const std::uint64_t budget =
      std::min<std::uint64_t>(rail.caps().max_small_packet, cfg_.aggregation_limit);

  // Pre-scan how many queued entries this packet will coalesce: always at
  // least one (a lone segment can equal the budget), afterwards only while
  // the payload still fits.
  std::size_t take = 0;
  std::uint64_t packed = 0;
  for (std::size_t i = 0; i < small_.size(); ++i) {
    const SmallEntry& entry = small_[i];
    if (take == kMaxAggregatedSegments) break;
    if (take > 0 && packed + entry.data.size() > budget) break;
    packed += entry.data.size();
    take += 1;
  }
  // Nothing to coalesce: use the zero-copy single-segment path instead of
  // paying the staging copy for one segment.
  if (take == 1) return pack_small_single(gate, rail);

  // Aggregation proper — the paper's deliberate memcpy into a contiguous
  // staging area (recycled from the gate's pool, not reallocated), charged
  // to the packet via extra_cpu_us.
  proto::GatherBuilder builder(proto::PacketKind::kData,
                               gate.header_pool().acquire(),
                               gate.staging_pool().acquire());
  PacketPlan plan;
  plan.contribs = gate.take_contribs();
  for (std::size_t i = 0; i < take; ++i) {
    const SmallEntry& entry = small_.front();
    const auto len = static_cast<std::uint32_t>(entry.data.size());
    builder.add_segment_staged(header_for(*entry.req, entry.msg_offset, len),
                               entry.data);
    plan.contribs.push_back(Contribution{entry.req, len});
    small_.pop_front();
  }
  metrics_.aggregation_hits.inc();
  const double copy_cost_us =
      static_cast<double>(packed) / rail.caps().copy_bandwidth_mbps;
  plan.desc = drv::SendDesc{drv::Track::kSmall, std::move(builder).finish(),
                            copy_cost_us};
  update_depth();
  return plan;
}

std::optional<PacketPlan> BacklogBase::pack_chunk(core::Gate& gate,
                                                  core::Rail& rail) {
  const auto idx = static_cast<std::int32_t>(rail.index());
  auto it = std::find_if(chunks_.begin(), chunks_.end(), [idx](const Chunk& c) {
    return c.rail_affinity == Chunk::kAnyRail || c.rail_affinity == idx;
  });
  if (it == chunks_.end()) return std::nullopt;
  Chunk chunk = *it;
  chunks_.erase(it);

  // DMA chunks are always zero-copy: the paper charges no host copy for
  // the rendezvous path, and neither do we.
  const auto len = static_cast<std::uint32_t>(chunk.data.size());
  PacketPlan plan;
  plan.contribs = gate.take_contribs();
  plan.desc = drv::SendDesc{
      drv::Track::kLarge,
      proto::encode_data_packet_view(
          gate.header_pool(), header_for(*chunk.req, chunk.msg_offset, len),
          chunk.data)};
  plan.contribs.push_back(Contribution{chunk.req, len});
  update_depth();
  return plan;
}

void BacklogBase::push_whole_chunk(const LargeEntry& entry, std::int32_t affinity) {
  chunks_.push_back(Chunk{entry.req, entry.data, entry.msg_offset, affinity});
  metrics_.chunks_created.inc();
  update_depth();
}

void BacklogBase::push_split_chunks(
    const LargeEntry& entry,
    const std::vector<std::pair<std::int32_t, double>>& shares) {
  NMAD_ASSERT(!shares.empty(), "split with no shares");
  const std::uint64_t len = entry.data.size();

  // Drop the lowest-weight shares until every chunk can be at least
  // min_chunk (so no chunk falls back onto the PIO path — paper §3.4).
  std::vector<std::pair<std::int32_t, double>> active(shares.begin(), shares.end());
  std::sort(active.begin(), active.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  while (active.size() > 1 && len / active.size() < cfg_.min_chunk) {
    active.pop_back();
  }
  // Also drop shares whose proportional slice would be below min_chunk.
  for (;;) {
    double total_w = 0;
    for (const auto& [_, w] : active) total_w += w;
    NMAD_ASSERT(total_w > 0.0, "split with zero total weight");
    const double slice =
        static_cast<double>(len) * active.back().second / total_w;
    if (active.size() == 1 || slice >= static_cast<double>(cfg_.min_chunk)) break;
    active.pop_back();
  }

  double total_w = 0;
  for (const auto& [_, w] : active) total_w += w;

  std::uint64_t offset = 0;
  std::uint64_t chunks_made = 0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    std::uint64_t chunk_len;
    if (i + 1 == active.size()) {
      chunk_len = len - offset;  // remainder absorbs rounding
    } else {
      chunk_len = static_cast<std::uint64_t>(
          static_cast<double>(len) * active[i].second / total_w + 0.5);
      chunk_len = std::min(chunk_len, len - offset);
    }
    if (chunk_len == 0) continue;
    chunks_.push_back(Chunk{
        entry.req, entry.data.subspan(offset, chunk_len),
        entry.msg_offset + static_cast<std::uint32_t>(offset), active[i].first});
    offset += chunk_len;
    chunks_made += 1;
  }
  NMAD_ASSERT(offset == len, "split chunks do not cover the segment");
  metrics_.chunks_created.inc(chunks_made);
  if (chunks_made >= 2) metrics_.segments_split.inc();
  update_depth();
}

}  // namespace nmad::strat
