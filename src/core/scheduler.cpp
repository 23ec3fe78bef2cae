#include "core/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "obs/registry.hpp"
#include "proto/wire.hpp"
#include "util/log.hpp"
#include "util/panic.hpp"

namespace nmad::core {

namespace {

/// ns elapsed between two instants, clamped for histogram recording.
std::uint64_t elapsed_ns(sim::TimeNs from, sim::TimeNs to) {
  return to > from ? static_cast<std::uint64_t>(to - from) : 0;
}

/// Drops finished requests nobody else holds once `live` passes `sweep_at`,
/// then re-arms at twice what was kept (at least 64). Small batches keep the
/// frees from flooding the allocator in one burst; doubling keeps the cost
/// O(1) amortized when callers hold on to their handles.
template <typename Handle>
void sweep_list(std::vector<Handle>& live, std::size_t& sweep_at) {
  constexpr std::size_t kMinSweep = 64;
  if (live.size() <= sweep_at) return;
  std::erase_if(live, [](const Handle& h) {
    return h->done() && h.use_count() == 1;
  });
  sweep_at = std::max(kMinSweep, 2 * live.size());
}

}  // namespace

void RequestMetrics::register_into(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
  registry.add(prefix + "sends_posted", &sends_posted);
  registry.add(prefix + "recvs_posted", &recvs_posted);
  registry.add(prefix + "sends_completed", &sends_completed);
  registry.add(prefix + "recvs_completed", &recvs_completed);
  registry.add(prefix + "send_bytes_submitted", &send_bytes_submitted);
  registry.add(prefix + "recv_bytes_delivered", &recv_bytes_delivered);
  registry.add(prefix + "unexpected_msgs", &unexpected_msgs);
  registry.add(prefix + "send_size", &send_size);
  registry.add(prefix + "recv_size", &recv_size);
  registry.add(prefix + "send_latency_ns", &send_latency_ns);
  registry.add(prefix + "recv_latency_ns", &recv_latency_ns);
}

Scheduler::Scheduler(ClockFn now, DeferFn defer, TimerFn timer)
    : now_(std::move(now)), defer_(std::move(defer)), timer_(std::move(timer)) {
  NMAD_ASSERT(now_ != nullptr, "Scheduler needs a clock");
  NMAD_ASSERT(defer_ != nullptr, "Scheduler needs a defer hook");
}

Scheduler::~Scheduler() = default;

GateId Scheduler::add_gate(std::vector<drv::Driver*> rails,
                           std::unique_ptr<strat::Strategy> strategy,
                           strat::StrategyConfig config) {
  NMAD_ASSERT(!config.reliability.ack_enabled || timer_ != nullptr,
              "ack_enabled requires a Scheduler timer hook");
  const auto id = static_cast<GateId>(gates_.size());
  gates_.push_back(
      std::make_unique<Gate>(id, rails, std::move(strategy), config));
  Gate& g = *gates_.back();
  for (Rail& rail : g.rails()) {
    const RailIndex idx = rail.index();
    RailGuard::Hooks hooks;
    hooks.now = now_;
    if (timer_ != nullptr) {
      hooks.timer = [this, token = std::weak_ptr<bool>(alive_)](
                        sim::TimeNs delay, std::function<void()> fn) {
        timer_(delay, [token, fn = std::move(fn)] {
          if (!token.expired()) fn();
        });
      };
    }
    hooks.credit = [this, id](std::vector<strat::Contribution> contribs) {
      credit_contribs(gate(id), std::move(contribs));
    };
    hooks.deliver = [this, id, idx](drv::Track track,
                                    std::span<const std::byte> packet) {
      Gate& target = gate(id);
      on_packet(target, target.rail(idx), track, packet);
    };
    hooks.note_post = [this, id, idx](const drv::SendDesc& desc) {
      note_rail_post(gate(id).rail(idx), desc);
    };
    hooks.kick = [this, id] { pump(gate(id)); };
    hooks.on_state_change = [this, id, idx](RailState st) {
      Gate& target = gate(id);
      if (st == RailState::kDead) {
        on_rail_dead(target, idx);
      } else {
        schedule_pump(target);
      }
    };
    hooks.on_revived = [this, id, idx] { on_rail_revived(gate(id), idx); };
    hooks.requeue = [this, id](std::vector<RailGuard::PendingFrame> frames) {
      Gate& target = gate(id);
      for (RailGuard::PendingFrame& pf : frames) {
        target.resend_.push_back(std::move(pf));
      }
      schedule_pump(target);
    };
    rail.guard.init(rail.driver(), idx, config.reliability, std::move(hooks));
    rail.guard.set_estimator(&g.estimator());
    rail.driver().set_deliver(
        [this, id, idx](drv::Track track, std::span<const std::byte> frame) {
          gate(id).rail(idx).guard.on_frame(track, frame);
        });
    rail.driver().set_error([this, id, idx](const drv::RailError& err) {
      gate(id).rail(idx).guard.on_driver_error(err);
    });
  }
  return id;
}

Gate& Scheduler::gate(GateId id) {
  NMAD_ASSERT(id < gates_.size(), "unknown gate id");
  return *gates_[id];
}

void Scheduler::register_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) {
  metrics_.register_into(registry, prefix + "requests.");
  for (const auto& gate_ptr : gates_) {
    Gate& g = *gate_ptr;
    const std::string gate_prefix =
        prefix + "gate" + std::to_string(g.id()) + ".";
    registry.label(gate_prefix + "strategy", std::string(g.strategy().name()));
    g.strategy().metrics().register_into(registry, gate_prefix + "strat.");
    g.adaptive_metrics.register_into(registry, gate_prefix + "adaptive.");
    g.header_pool().register_into(registry, gate_prefix + "pool.header_");
    g.staging_pool().register_into(registry, gate_prefix + "pool.staging_");
    for (Rail& rail : g.rails()) {
      const std::string rail_prefix =
          gate_prefix + "rail" + std::to_string(rail.index()) + ".";
      registry.label(rail_prefix + "nic", rail.caps().name);
      rail.metrics.register_into(registry, rail_prefix);
      rail.guard.metrics.register_into(registry, rail_prefix);
      g.estimator().register_rail_into(registry, rail.index(),
                                       rail_prefix + "est.");
      rail.driver().register_metrics(registry, rail_prefix + "drv.");
    }
  }
}

std::size_t Scheduler::pending_requests() const noexcept {
  std::size_t n = 0;
  for (const auto& h : live_sends_) {
    if (!h->done()) ++n;
  }
  for (const auto& h : live_recvs_) {
    if (!h->done()) ++n;
  }
  return n;
}

void Scheduler::sweep_completed() {
  sweep_list(live_sends_, sweep_sends_at_);
  sweep_list(live_recvs_, sweep_recvs_at_);
}

// --------------------------------------------------------------------------
// Collect layer entry points
// --------------------------------------------------------------------------

SendHandle Scheduler::make_send(GateId gate_id, Tag tag,
                                std::span<const std::span<const std::byte>> segments) {
  NMAD_ASSERT(gate_id < gates_.size(), "unknown gate id");
  auto req = std::make_shared<SendRequest>(tag, segments);
  req->note_submit_time(now_());
  req->note_gate(gate_id);
  metrics_.sends_posted.inc();
  metrics_.send_bytes_submitted.inc(req->total_len());
  metrics_.send_size.record(req->total_len());
  return req;
}

void Scheduler::submit_send(SendHandle req) {
  sweep_completed();
  Gate& g = gate(req->gate());
  const Tag tag = req->tag();
  const MsgSeq seq = g.next_send_seq_[tag]++;
  req->assign_seq(seq);
  live_sends_.push_back(req);

  if (g.failed_) {
    // All rails dead: nothing will ever move. Fail fast.
    const sim::TimeNs t = now_();
    req->fail(t);
    notify_settled();
    return;
  }

  strat::Strategy& strat = g.strategy();
  const std::uint32_t total = req->total_len();
  bool has_large = false;
  if (total == 0) {
    // A zero-length message still needs one (empty) packet so the receiver
    // observes it.
    strat.on_submit_small(g, strat::SmallEntry{req.get(), {}, 0});
  } else {
    for (const ConstSegment& seg : req->segments()) {
      if (seg.data.size() <= g.small_threshold()) {
        strat.on_submit_small(g,
                              strat::SmallEntry{req.get(), seg.data, seg.msg_offset});
      } else {
        strat.on_submit_large(g,
                              strat::LargeEntry{req.get(), seg.data, seg.msg_offset});
        has_large = true;
      }
    }
  }
  if (has_large) {
    g.control_.push_back(drv::SendDesc{
        drv::Track::kSmall,
        proto::encode_rdv_req_view(g.header_pool(), tag, seq, total), 0.0});
  }
  schedule_pump(g);
}

SendHandle Scheduler::isend(GateId gate_id, Tag tag,
                            std::span<const std::span<const std::byte>> segments) {
  SendHandle req = make_send(gate_id, tag, segments);
  submit_send(req);
  return req;
}

RecvHandle Scheduler::make_recv(GateId gate_id, Tag tag,
                                std::span<const std::span<std::byte>> segments) {
  NMAD_ASSERT(gate_id < gates_.size(), "unknown gate id");
  auto req = std::make_shared<RecvRequest>(tag, segments);
  req->note_submit_time(now_());
  req->note_gate(gate_id);
  metrics_.recvs_posted.inc();
  return req;
}

void Scheduler::submit_recv(RecvHandle req) {
  sweep_completed();
  Gate& g = gate(req->gate());
  const Tag tag = req->tag();
  const MsgSeq seq = g.next_recv_seq_[tag]++;
  req->assign_seq(seq);
  live_recvs_.push_back(req);

  if (g.failed_) {
    const sim::TimeNs t = now_();
    req->fail(t);
    notify_settled();
    return;
  }

  const MsgKey key{tag, seq};
  auto it = g.incoming_.find(key);
  if (it != g.incoming_.end()) {
    bind_recv(g, it->second, req.get());
    try_finalize(g, key);
  } else {
    g.incoming_at(key).recv = req.get();
  }
  schedule_pump(g);
}

RecvHandle Scheduler::irecv(GateId gate_id, Tag tag,
                            std::span<const std::span<std::byte>> segments) {
  RecvHandle req = make_recv(gate_id, tag, segments);
  submit_recv(req);
  return req;
}

// --------------------------------------------------------------------------
// Packing pump
// --------------------------------------------------------------------------

void Scheduler::schedule_pump(Gate& gate) {
  if (gate.pump_scheduled_) return;
  gate.pump_scheduled_ = true;
  defer_([this, &gate] {
    gate.pump_scheduled_ = false;
    pump(gate);
  });
}

void Scheduler::pump(Gate& gate) {
  if (gate.pumping_) {
    gate.repump_ = true;
    return;
  }
  gate.pumping_ = true;
  do {
    gate.repump_ = false;
    while (pump_once(gate)) {
    }
  } while (gate.repump_);
  gate.pumping_ = false;
}

bool Scheduler::pump_once(Gate& gate) {
  if (gate.failed_) return false;
  bool progress = false;

  // Adaptive striping: re-derive split ratios / rail order from the live
  // estimates once per optimization window (no-op unless enabled).
  gate.maybe_refresh_ratios(now_());

  // Reliability upkeep first: due retransmissions and owed standalone acks
  // (the guards post directly and account through the note_post hook).
  for (Rail& rail : gate.rails()) {
    if (rail.alive() && rail.guard.flush()) progress = true;
  }
  if (gate.failed_) return progress;  // a flush may have killed the last rail

  // Frames surrendered by dead rails jump the queue: they carry data the
  // peer is already waiting on.
  if (drain_resend(gate)) progress = true;

  // Rendezvous control packets take priority on the eager tracks; pick the
  // lowest-latency healthy idle rail for them.
  while (!gate.control_.empty()) {
    Rail* best = nullptr;
    for (Rail& r : gate.rails()) {
      if (r.healthy() && r.idle(drv::Track::kSmall) &&
          (best == nullptr || r.caps().latency_us < best->caps().latency_us)) {
        best = &r;
      }
    }
    if (best == nullptr) break;
    drv::SendDesc desc = std::move(gate.control_.front());
    gate.control_.pop_front();
    post_control(gate, *best, std::move(desc));
    progress = true;
  }

  // Just-in-time strategy packing: offer every healthy idle track to the
  // strategy (suspect rails keep retransmitting but take no new work).
  // Offer order follows gate.rail_order(): index order normally, live
  // estimated-rate order under adaptive striping — the greedy strategies'
  // kAnyRail backlog drains onto the fastest rail first.
  for (RailIndex ri : gate.rail_order()) {
    Rail& rail = gate.rail(ri);
    if (!rail.healthy()) continue;
    for (drv::Track track : {drv::Track::kSmall, drv::Track::kLarge}) {
      while (rail.healthy() && rail.idle(track)) {
        auto plan = gate.strategy().try_pack(gate, rail, track);
        if (!plan.has_value()) break;
        NMAD_ASSERT(plan->desc.track == track, "strategy packed for wrong track");
        post_plan(gate, rail, std::move(*plan));
        progress = true;
      }
    }
  }
  return progress;
}

bool Scheduler::drain_resend(Gate& gate) {
  bool progress = false;
  while (!gate.resend_.empty()) {
    RailGuard::PendingFrame& pf = gate.resend_.front();
    // Prefer the frame's original track on a healthy rail; an eager frame
    // too big for a survivor's PIO window rides its DMA track instead.
    Rail* target = nullptr;
    drv::Track track = pf.desc.track;
    for (Rail& r : gate.rails()) {
      if (!r.healthy()) continue;
      drv::Track t = pf.desc.track;
      if (t == drv::Track::kSmall &&
          pf.desc.view.wire_size() > r.caps().max_small_packet) {
        t = drv::Track::kLarge;
      }
      if (r.idle(t)) {
        target = &r;
        track = t;
        break;
      }
    }
    if (target == nullptr) break;
    drv::SendDesc desc = std::move(pf.desc);
    desc.track = track;
    std::vector<strat::Contribution> contribs = std::move(pf.contribs);
    gate.resend_.pop_front();
    note_rail_post(*target, desc);
    target->guard.post(std::move(desc), std::move(contribs));
    progress = true;
  }
  return progress;
}

void Scheduler::post_control(Gate& gate, Rail& rail, drv::SendDesc desc) {
  (void)gate;
  rail.tx.control_packets += 1;
  note_rail_post(rail, desc);
  rail.metrics.control_packets.inc();
  rail.guard.post(std::move(desc), {});
}

void Scheduler::post_plan(Gate& gate, Rail& rail, strat::PacketPlan plan) {
  const auto track_idx = static_cast<std::size_t>(plan.desc.track);
  rail.tx.packets[track_idx] += 1;
  rail.tx.segments += plan.contribs.size();
  std::uint64_t payload = 0;
  for (const auto& c : plan.contribs) payload += c.bytes;
  rail.tx.payload_bytes[track_idx] += payload;

  note_rail_post(rail, plan.desc);
  rail.metrics.segments_sent.inc(plan.contribs.size());
  if (plan.desc.track == drv::Track::kSmall) {
    rail.metrics.small_payload_bytes.inc(payload);
    if (plan.contribs.size() >= 2) {
      rail.metrics.aggregation_hits.inc();
    } else {
      rail.metrics.aggregation_misses.inc();
    }
  } else {
    rail.metrics.large_payload_bytes.inc(payload);
  }

  (void)gate;
  rail.guard.post(std::move(plan.desc), std::move(plan.contribs));
}

void Scheduler::note_rail_post(Rail& rail, const drv::SendDesc& desc) {
  Rail::Metrics& m = rail.metrics;
  if (rail.idle(drv::Track::kSmall) && rail.idle(drv::Track::kLarge)) {
    m.nic_wakeups.inc();
  }
  m.packets_sent.inc();
  m.bytes_sent.inc(desc.wire_size());
  m.packet_size.record(desc.wire_size());
  m.bytes_copied.inc(desc.view.copied_bytes());
  m.allocs_hot_path.inc(desc.view.heap_allocs());
  if (desc.track == drv::Track::kSmall) {
    m.pio_transfers.inc();
  } else {
    m.rdv_transfers.inc();
  }
}

void Scheduler::credit_contribs(Gate& gate,
                                std::vector<strat::Contribution> contribs) {
  const sim::TimeNs t = now_();
  for (const strat::Contribution& c : contribs) {
    const bool was_completed = c.req->completed();
    c.req->credit_sent(c.bytes, t);
    if (!was_completed && c.req->completed()) {
      metrics_.sends_completed.inc();
      metrics_.send_latency_ns.record(elapsed_ns(c.req->submit_time(), t));
      notify_settled();
    }
  }
  gate.recycle_contribs(std::move(contribs));
}

void Scheduler::on_rail_dead(Gate& gate, RailIndex idx) {
  Rail& rail = gate.rail(idx);
  // Surrender the dead rail's retained frames; they repost on survivors.
  for (RailGuard::PendingFrame& pf : rail.guard.take_unacked()) {
    gate.resend_.push_back(std::move(pf));
  }
  gate.strategy().on_rail_dead(gate, idx);
  gate.recompute_fastest();
  bool any_alive = false;
  for (const Rail& r : gate.rails()) {
    if (r.alive()) {
      any_alive = true;
      break;
    }
  }
  if (!any_alive) {
    fail_gate(gate);
    return;
  }
  schedule_pump(gate);
}

void Scheduler::on_rail_revived(Gate& gate, RailIndex idx) {
  if (gate.failed_) {
    // Total-outage recovery: requests failed while every rail was down
    // stay settled as failed (no zombie resurrection); the gate itself
    // comes back for new submissions.
    NMAD_LOG_INFO("core", "gate%u: rail%u resurrected, gate accepting traffic",
                  gate.id(), idx);
    gate.failed_ = false;
  }
  gate.strategy().on_rail_revived(gate, idx);
  gate.recompute_fastest();
  schedule_pump(gate);
}

void Scheduler::fail_gate(Gate& gate) {
  if (gate.failed_) return;
  gate.failed_ = true;
  NMAD_LOG_WARN("core", "gate%u: every rail dead, failing pending requests",
                gate.id());
  gate.control_.clear();
  gate.resend_.clear();
  gate.incoming_.clear();
  gate.strategy().on_gate_failed(gate);
  const sim::TimeNs t = now_();
  for (const auto& h : live_sends_) {
    if (h->gate() != gate.id() || h->done()) continue;
    h->fail(t);
    notify_settled();
  }
  for (const auto& h : live_recvs_) {
    if (h->gate() != gate.id() || h->done()) continue;
    h->fail(t);
    notify_settled();
  }
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

void Scheduler::on_packet(Gate& gate, Rail& rail, drv::Track /*track*/,
                          std::span<const std::byte> wire) {
  const auto packet = proto::read_packet(wire);
  if (!packet) {
    // A frame that passed the envelope checksum but fails packet decode:
    // treat like corruption — drop it and let retransmission (if enabled)
    // heal the loss. Panicking would turn one bad frame into an outage.
    rail.guard.metrics.malformed_drops.inc();
    NMAD_LOG_WARN("core", "gate%u: dropping undecodable packet (%zu bytes)",
                  gate.id(), wire.size());
    return;
  }
  for (const proto::WireSegment& seg : *packet) {
    switch (packet->kind()) {
      case proto::PacketKind::kData:
        handle_data_segment(gate, rail, seg.header, seg.payload);
        break;
      case proto::PacketKind::kRdvReq:
        handle_rdv_req(gate, seg.header);
        break;
      case proto::PacketKind::kRdvAck:
        handle_rdv_ack(gate, seg.header);
        break;
    }
  }
  pump(gate);
}

void Scheduler::handle_data_segment(Gate& gate, Rail& rail,
                                    const proto::SegHeader& h,
                                    std::span<const std::byte> payload) {
  const MsgKey key{h.tag, h.msg_seq};
  Gate::Incoming& inc = gate.incoming_at(key);
  if (!inc.total_known) {
    inc.total_len = h.total_len;
    inc.total_known = true;
  } else if (inc.total_len != h.total_len) {
    // The peer contradicts the length its earlier chunks (or rendezvous
    // request) announced. The first announcement stands: drop this
    // segment, count it as a protocol violation on the rail it came from,
    // and leave the message pending.
    rail.guard.metrics.malformed_drops.inc();
    NMAD_LOG_WARN("core",
                  "gate%u: dropping chunk of tag %u seq %u: total length %u, "
                  "earlier chunks said %u",
                  gate.id(), h.tag, h.msg_seq, h.total_len, inc.total_len);
    return;
  }
  ensure_assembly(inc);
  if (auto st = inc.assembly.add_chunk(h.offset, payload); !st) {
    // Out-of-range or partially-overlapping chunk: drop it rather than
    // crash. Exact duplicates (failover reposts whose original landed)
    // return success and are simply not re-applied.
    NMAD_LOG_WARN("core", "dropping bad chunk: %s", st.error().message.c_str());
    return;
  }
  if (inc.assembly.complete()) {
    inc.data_complete = true;
    try_finalize(gate, key);
  }
}

void Scheduler::handle_rdv_req(Gate& gate, const proto::SegHeader& h) {
  const MsgKey key{h.tag, h.msg_seq};
  Gate::Incoming& inc = gate.incoming_at(key);
  inc.rdv_seen = true;
  if (!inc.total_known) {
    inc.total_len = h.total_len;
    inc.total_known = true;
  }
  if (inc.recv != nullptr && !inc.rdv_acked) {
    ensure_assembly(inc);
    enqueue_ack(gate, key);
    inc.rdv_acked = true;
  }
}

void Scheduler::handle_rdv_ack(Gate& gate, const proto::SegHeader& h) {
  gate.strategy().on_rdv_granted(gate, MsgKey{h.tag, h.msg_seq});
}

void Scheduler::bind_recv(Gate& gate, Gate::Incoming& inc, RecvRequest* recv) {
  NMAD_ASSERT(inc.recv == nullptr, "incoming message bound twice");
  inc.recv = recv;
  if (inc.total_known) {
    NMAD_ASSERT(recv->capacity() >= inc.total_len,
                "receive buffer smaller than incoming message");
    if (inc.assembling) {
      // Migrate from unexpected-message storage into the user segments.
      inc.assembly.rebind(recv->segments());
      inc.temp.clear();
      inc.temp.shrink_to_fit();
    } else {
      ensure_assembly(inc);
    }
  }
  if (inc.rdv_seen && !inc.rdv_acked) {
    enqueue_ack(gate, MsgKey{recv->tag(), recv->seq()});
    inc.rdv_acked = true;
  }
}

void Scheduler::ensure_assembly(Gate::Incoming& inc) {
  if (inc.assembling) return;
  NMAD_ASSERT(inc.total_known, "assembly requires known message length");
  if (inc.recv != nullptr) {
    NMAD_ASSERT(inc.recv->capacity() >= inc.total_len,
                "receive buffer smaller than incoming message");
    inc.assembly.reset(inc.recv->segments(), inc.total_len);
  } else {
    inc.temp.resize(inc.total_len);
    inc.assembly.reset(inc.temp);
    metrics_.unexpected_msgs.inc();
  }
  inc.assembling = true;
}

void Scheduler::try_finalize(Gate& gate, MsgKey key) {
  auto it = gate.incoming_.find(key);
  if (it == gate.incoming_.end()) return;
  Gate::Incoming& inc = it->second;
  if (!inc.data_complete || inc.recv == nullptr) return;
  const sim::TimeNs t = now_();
  inc.recv->complete(inc.total_len, t);
  metrics_.recvs_completed.inc();
  metrics_.recv_bytes_delivered.inc(inc.total_len);
  metrics_.recv_size.record(inc.total_len);
  metrics_.recv_latency_ns.record(elapsed_ns(inc.recv->submit_time(), t));
  notify_settled();
  gate.erase_incoming(it);
}

void Scheduler::enqueue_ack(Gate& gate, MsgKey key) {
  gate.control_.push_back(drv::SendDesc{
      drv::Track::kSmall,
      proto::encode_rdv_ack_view(gate.header_pool(), key.tag, key.seq), 0.0});
}

}  // namespace nmad::core
