#include "drv/sim_driver.hpp"

#include <algorithm>
#include "util/fmt.hpp"
#include <utility>

#include "obs/registry.hpp"
#include "util/panic.hpp"

namespace nmad::drv {

SimDriver::SimDriver(SimWorld& world, NodeId node, netmodel::NicProfile profile,
                     sim::ConstraintId tx_link)
    : world_(world), node_(node), profile_(std::move(profile)), tx_link_(tx_link) {
  caps_.name = profile_.name;
  caps_.max_small_packet = profile_.pio_threshold;
  caps_.copy_bandwidth_mbps = profile_.copy_bandwidth_mbps;
  caps_.latency_us = profile_.min_latency_us();
  caps_.bandwidth_mbps = profile_.dma_bandwidth_mbps;
  caps_.poll_cost_us = profile_.poll_cost_us;
}

bool SimDriver::send_idle(Track track) const noexcept {
  return !busy_[static_cast<std::size_t>(track)];
}

void SimDriver::set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

void SimDriver::register_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) const {
  registry.add_raw(prefix + "eager_packets", &stats_.eager_packets);
  registry.add_raw(prefix + "eager_bytes", &stats_.eager_bytes);
  registry.add_raw(prefix + "dma_packets", &stats_.dma_packets);
  registry.add_raw(prefix + "dma_bytes", &stats_.dma_bytes);
  registry.add_raw(prefix + "delivered_packets", &stats_.delivered_packets);
  registry.add_raw(prefix + "polls", &stats_.polls);
}

void SimDriver::post_send(SendDesc desc, Callback on_sent) {
  NMAD_ASSERT(send_idle(desc.track), "post_send on busy track");
  // wire_size() == 0 is legal: an ack-only frame is just the envelope.
  const auto t = static_cast<std::size_t>(desc.track);
  busy_[t] = true;
  on_sent_[t] = std::move(on_sent);
  if (desc.track == Track::kSmall) {
    // max_small_packet caps the *payload*; allow protocol headers on top
    // (generously: aggregated packets carry one SegHeader per segment).
    NMAD_ASSERT(desc.wire_size() <= caps_.max_small_packet + 4096,
                "eager packet exceeds small-track limit");
    send_eager(std::move(desc));
  } else {
    send_dma(std::move(desc));
  }
}

std::uint32_t SimDriver::take_wire(SendDesc& desc) {
  std::uint32_t w;
  if (free_wires_.empty()) {
    w = static_cast<std::uint32_t>(wires_.size());
    wires_.emplace_back();
  } else {
    w = free_wires_.back();
    free_wires_.pop_back();
  }
  std::vector<std::byte>& buf = wires_[w];
  buf.clear();
  if (buf.capacity() < desc.frame_size()) {
    // Free the short buffer before taking the larger one, so the allocator
    // can hand back the same memory instead of growing the heap by both.
    buf = std::vector<std::byte>();
    buf.reserve(desc.frame_size());
  }
  buf.insert(buf.end(), desc.envelope.begin(), desc.envelope.end());
  desc.view.gather_into(buf);
  desc.view.reset();
  return w;
}

void SimDriver::sent(Track track) {
  const auto t = static_cast<std::size_t>(track);
  Callback on_sent = std::move(on_sent_[t]);
  on_sent_[t] = nullptr;
  busy_[t] = false;
  if (world_.trace().enabled()) {
    world_.trace().record(world_.engine().now(),
                          track == Track::kSmall ? "pio.done" : "dma.done",
                          profile_.name);
  }
  if (on_sent) on_sent();
}

void SimDriver::send_eager(SendDesc desc) {
  auto& engine = world_.engine();
  const std::size_t wire_bytes = desc.wire_size();
  stats_.eager_packets += 1;
  stats_.eager_bytes += wire_bytes;

  // PIO: the CPU is held for setup + packet building + the host->NIC copy.
  const sim::TimeNs cpu_time =
      sim::us_to_ns(profile_.send_overhead_us + desc.extra_cpu_us) +
      sim::transfer_ns(wire_bytes, profile_.pio_bandwidth_mbps);

  if (world_.trace().enabled()) {
    world_.trace().record(engine.now(), "pio.start",
                          util::sformat("%s %zuB", profile_.name.c_str(), wire_bytes));
  }

  // Gather the scatter-gather view into the transit buffer now, while the
  // request's segments are guaranteed alive (completion has not fired).
  // This models the NIC reading host memory during the PIO injection — it
  // is the simulated wire, not a host-side staging copy, so it is not
  // charged to bytes_copied. Gathering here also lets the pooled header
  // block recycle as soon as this frame leaves post_send. The reliability
  // envelope rides in front of the packet; like real NIC hardware framing
  // it is excluded from the calibrated PIO timing and byte stats above.
  const std::uint32_t w = take_wire(desc);

  // The NIC accepted the packet when the CPU is done: the track can take
  // the next one.
  const sim::TimeNs cpu_done =
      world_.cpu(node_).acquire(cpu_time, [this] { sent(Track::kSmall); });

  // Wire transit: constant hardware latency after injection. Delivery on
  // the eager track is FIFO per link direction.
  sim::TimeNs delivery = cpu_done + sim::us_to_ns(profile_.wire_latency_us);
  delivery = std::max(delivery, last_eager_delivery_);
  last_eager_delivery_ = delivery;
  engine.schedule_at(delivery, [this, w] { peer_->arrive(Track::kSmall, w); });
}

void SimDriver::send_dma(SendDesc desc) {
  auto& engine = world_.engine();
  const std::size_t wire_bytes = desc.wire_size();
  stats_.dma_packets += 1;
  stats_.dma_bytes += wire_bytes;

  // The CPU only programs the descriptor (plus any packing work); the
  // transfer itself runs on the NIC's DMA engine.
  const sim::TimeNs cpu_time =
      sim::us_to_ns(profile_.dma_setup_us + desc.extra_cpu_us);

  // Gather into the transit buffer at post time (the DMA engine reads the
  // chunk's user memory directly; the copy below is the simulated wire,
  // not a host-side copy — see send_eager). The view's pooled blocks are
  // recycled immediately. The envelope is NIC framing: carried in front of
  // the packet but excluded from the modeled flow size and byte stats.
  const std::uint32_t w = take_wire(desc);

  if (world_.trace().enabled()) {
    world_.trace().record(engine.now(), "dma.program",
                          util::sformat("%s %zuB", profile_.name.c_str(), wire_bytes));
  }

  world_.cpu(node_).acquire(cpu_time, [this, w] {
    // DMA engine spin-up, then a fluid flow across link + both buses.
    world_.engine().schedule(sim::us_to_ns(profile_.dma_start_us), [this, w] {
      const std::size_t bytes = wires_[w].size() - proto::kFrameEnvelopeBytes;
      if (world_.trace().enabled()) {
        world_.trace().record(world_.engine().now(), "dma.start",
                              util::sformat("%s %zuB", profile_.name.c_str(), bytes));
      }
      const std::vector<sim::ConstraintId> constraints{
          tx_link_, world_.bus(node_), world_.bus(peer_->node_)};
      world_.net().start_flow(bytes, constraints, [this, w] {
        sent(Track::kLarge);
        // Last byte hits the remote NIC one wire latency later.
        world_.engine().schedule(sim::us_to_ns(profile_.wire_latency_us),
                                 [this, w] { peer_->arrive(Track::kLarge, w); });
      });
    });
  });
}

void SimDriver::arrive(Track track, std::uint32_t wire) {
  // Receive-side host processing: per-packet overhead plus the progression
  // engine's cost of having polled the node's other rails. Each sibling
  // rail is charged one poll — the counter behind the Fig. 6 gap.
  for (SimDriver* rail : world_.rails(node_)) {
    if (rail != this) rail->stats_.polls += 1;
  }
  const sim::TimeNs penalty = world_.poll_penalty(node_, this);
  const sim::TimeNs recv_cost = sim::us_to_ns(profile_.recv_overhead_us) + penalty;
  world_.engine().schedule(recv_cost, [this, track, wire] {
    stats_.delivered_packets += 1;
    // The bytes stay in the sender's buffer list until the upcall returns
    // (the DeliverFn contract), then the buffer goes back for reuse.
    const std::vector<std::byte>& buf = peer_->wires_[wire];
    if (world_.trace().enabled()) {
      world_.trace().record(world_.engine().now(), "deliver",
                            util::sformat("%s %s %zuB", profile_.name.c_str(),
                                          track_name(track), buf.size()));
    }
    NMAD_ASSERT(deliver_ != nullptr, "packet arrived with no deliver upcall");
    deliver_(track, std::span<const std::byte>(buf));
    peer_->free_wires_.push_back(wire);
  });
}

}  // namespace nmad::drv
