#include "core/rail_guard.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/registry.hpp"
#include "proto/wire.hpp"
#include "strat/rate_estimator.hpp"
#include "util/log.hpp"
#include "util/panic.hpp"

namespace nmad::core {

void RailGuardMetrics::register_into(obs::MetricsRegistry& registry,
                                     const std::string& prefix) const {
  registry.add(prefix + "retransmits", &retransmits);
  registry.add(prefix + "timeouts", &timeouts);
  registry.add(prefix + "acks_sent", &acks_sent);
  registry.add(prefix + "acks_received", &acks_received);
  registry.add(prefix + "dup_frames", &dup_frames);
  registry.add(prefix + "crc_drops", &crc_drops);
  registry.add(prefix + "malformed_drops", &malformed_drops);
  registry.add(prefix + "state_transitions", &state_transitions);
  registry.add(prefix + "requeued_packets", &requeued_packets);
  registry.add(prefix + "requeued_bytes", &requeued_bytes);
  registry.add(prefix + "probes_sent", &probes_sent);
  registry.add(prefix + "stale_frames_dropped", &stale_frames_dropped);
  registry.add(prefix + "reconnects", &reconnects);
  registry.add(prefix + "state", &state);
  registry.add(prefix + "epoch", &epoch);
}

void RailGuard::init(drv::Driver& driver, RailIndex index,
                     ReliabilityConfig cfg, Hooks hooks) {
  NMAD_ASSERT(driver_ == nullptr, "RailGuard initialized twice");
  driver_ = &driver;
  index_ = index;
  cfg_ = cfg;
  hooks_ = std::move(hooks);
  jitter_ = util::Xoshiro256(cfg_.jitter_seed + index);
  NMAD_ASSERT(hooks_.now && hooks_.credit && hooks_.deliver && hooks_.kick,
              "RailGuard hooks incomplete");
  NMAD_ASSERT(!cfg_.ack_enabled || hooks_.timer != nullptr,
              "ack/retransmit requires a timer hook");
  NMAD_ASSERT(!(cfg_.keepalive_enabled || cfg_.reconnect_enabled) ||
                  cfg_.ack_enabled,
              "keepalive/reconnect require ack_enabled");
  metrics.state.set(static_cast<std::int64_t>(state()));
  metrics.epoch.set(static_cast<std::int64_t>(epoch_));
  last_rx_ = hooks_.now();
  reconnect_delay_ = cfg_.reconnect_backoff_ns;
  arm_keepalive_timer();
}

// --------------------------------------------------------------------------
// Transmit path
// --------------------------------------------------------------------------

void RailGuard::seal(drv::SendDesc& desc, std::uint8_t flags,
                     std::uint32_t seq, std::uint32_t epoch) {
  proto::FrameEnvelope env;
  env.flags = flags;
  env.seq = seq;
  // The incarnation stamp: receivers fence frames whose epoch does not
  // match their live one (reconnect handshakes carry the *proposed* epoch).
  env.epoch = epoch;
  // Every outgoing frame piggybacks our cumulative receive state; the
  // fields double as the standalone-ack payload.
  env.ack_small = rx_[0].contiguous;
  env.ack_large = rx_[1].contiguous;
  proto::seal_frame_envelope(desc.envelope, env, desc.view.head(),
                             desc.view.payload_spans());
  rx_[0].last_acked = env.ack_small;
  rx_[1].last_acked = env.ack_large;
  rx_[static_cast<std::size_t>(desc.track)].force_ack = false;
}

drv::SendDesc RailGuard::make_alias(const TxEntry& entry) const {
  drv::SendDesc alias(entry.desc.track, entry.desc.view.alias(),
                      entry.desc.extra_cpu_us);
  alias.envelope = entry.desc.envelope;
  return alias;
}

void RailGuard::post(drv::SendDesc desc, std::vector<strat::Contribution> contribs) {
  NMAD_ASSERT(driver_ != nullptr, "RailGuard used before init");
  NMAD_ASSERT(alive(), "post on a dead or probing rail");
  const auto track_idx = static_cast<std::size_t>(desc.track);
  const std::uint32_t seq = ++next_seq_[track_idx];
  seal(desc, 0, seq, epoch_);

  if (!cfg_.ack_enabled) {
    // The track holds one frame at a time, so its credit waits in a
    // per-track slot and the completion closure stays small enough for
    // std::function's inline storage.
    const drv::Track tr = desc.track;
    LocalPost& lp = local_[track_idx];
    lp.posted_at = hooks_.now();
    lp.wire = desc.wire_size();
    lp.contribs = std::move(contribs);
    driver_->post_send(std::move(desc), [this, tr] { on_local_sent(tr); });
    return;
  }

  TxEntry entry;
  entry.seq = seq;
  entry.track = desc.track;
  entry.desc = std::move(desc);
  entry.contribs = std::move(contribs);
  entry.posted_at = hooks_.now();
  entry.deadline = entry.posted_at + next_rto(0);
  entry.in_flight = true;
  tx_.push_back(std::move(entry));

  const drv::Track track = tx_.back().track;
  driver_->post_send(make_alias(tx_.back()), [this, seq, track] {
    for (auto it = tx_.begin(); it != tx_.end(); ++it) {
      if (it->seq != seq || it->track != track) continue;
      it->in_flight = false;
      it->locally_done = true;
      if (estimator_ != nullptr && track == drv::Track::kLarge &&
          it->retries == 0) {
        // First-transmission DMA completion: a clean bandwidth sample.
        const sim::TimeNs now = hooks_.now();
        estimator_->note_transfer(index_, it->desc.wire_size(),
                                  now - it->posted_at, now);
      }
      if (it->acked) {
        auto done = std::move(it->contribs);
        tx_.erase(it);
        hooks_.credit(std::move(done));
      }
      break;
    }
    hooks_.kick();
  });
  arm_retransmit_timer();
}

void RailGuard::on_local_sent(drv::Track track) {
  // Legacy semantics: contributions credit on local send completion and
  // nothing is retained — the wire is trusted to be reliable. The local DMA
  // completion doubles as a delivered-bytes sample for the rate estimator
  // (PIO completions measure the host copy and are skipped).
  LocalPost& lp = local_[static_cast<std::size_t>(track)];
  if (estimator_ != nullptr && track == drv::Track::kLarge) {
    const sim::TimeNs now = hooks_.now();
    estimator_->note_transfer(index_, lp.wire, now - lp.posted_at, now);
  }
  hooks_.credit(std::move(lp.contribs));
  hooks_.kick();
}

sim::TimeNs RailGuard::next_rto(std::uint32_t retries) {
  double rto = static_cast<double>(cfg_.rto_ns) *
               std::pow(cfg_.rto_backoff, static_cast<double>(retries));
  rto = std::min(rto, static_cast<double>(cfg_.rto_max_ns));
  // +/- jitter/2 around the nominal deadline: parallel rails (and the two
  // peers of one rail) must not retransmit in lockstep.
  rto *= 1.0 + cfg_.rto_jitter * (jitter_.next_double() - 0.5);
  return static_cast<sim::TimeNs>(rto);
}

void RailGuard::arm_retransmit_timer() {
  if (!cfg_.ack_enabled || !alive()) return;
  sim::TimeNs earliest = 0;
  bool found = false;
  for (const TxEntry& e : tx_) {
    if (e.acked) continue;
    if (!found || e.deadline < earliest) {
      earliest = e.deadline;
      found = true;
    }
  }
  if (!found) return;
  if (rto_timer_armed_ && earliest >= rto_timer_deadline_) return;
  rto_timer_armed_ = true;
  rto_timer_deadline_ = earliest;
  const sim::TimeNs now = hooks_.now();
  const sim::TimeNs delay = earliest > now ? earliest - now : 0;
  hooks_.timer(delay, [this] { on_retransmit_timer(); });
}

void RailGuard::on_retransmit_timer() {
  rto_timer_armed_ = false;
  if (!alive()) return;
  handle_deadlines();
}

void RailGuard::handle_deadlines() {
  if (in_deadlines_) return;
  in_deadlines_ = true;
  const sim::TimeNs now = hooks_.now();
  // Index loop: a transition upcall inside the body can pump the gate and
  // push new retained frames (deque iterators would invalidate).
  for (std::size_t i = 0; i < tx_.size(); ++i) {
    if (tx_[i].acked || tx_[i].deadline > now) continue;
    metrics.timeouts.inc();
    if (estimator_ != nullptr) estimator_->note_timeout(index_, now);
    consecutive_timeouts_ += 1;
    tx_[i].retries += 1;
    if (tx_[i].retries > cfg_.max_retries) {
      in_deadlines_ = false;
      die("retransmit retries exhausted");
      return;
    }
    tx_[i].deadline = now + next_rto(tx_[i].retries);
    if (state() == RailState::kHealthy &&
        consecutive_timeouts_ >= cfg_.suspect_after) {
      transition(RailState::kSuspect);
    }
    // Retransmit if the track is free; a suspect rail's retransmissions
    // are its recovery probes. A busy (or killed) track just re-arms — the
    // retry is still charged, so a silent rail converges to dead.
    if (driver_->send_idle(tx_[i].track)) {
      metrics.retransmits.inc();
      drv::SendDesc alias = make_alias(tx_[i]);
      if (hooks_.note_post) hooks_.note_post(alias);
      tx_[i].in_flight = true;
      const std::uint32_t seq = tx_[i].seq;
      const drv::Track track = tx_[i].track;
      driver_->post_send(std::move(alias), [this, seq, track] {
        for (auto it = tx_.begin(); it != tx_.end(); ++it) {
          if (it->seq != seq || it->track != track) continue;
          it->in_flight = false;
          it->locally_done = true;
          if (it->acked) {
            auto contribs = std::move(it->contribs);
            tx_.erase(it);
            hooks_.credit(std::move(contribs));
          }
          break;
        }
        hooks_.kick();
      });
    }
  }
  in_deadlines_ = false;
  arm_retransmit_timer();
}

bool RailGuard::flush() {
  if (!alive() || !cfg_.ack_enabled) return false;
  bool posted = false;
  // Due retransmissions first (they also re-arm the timer) ...
  const sim::TimeNs now = hooks_.now();
  bool any_due = false;
  for (const TxEntry& e : tx_) {
    if (!e.acked && e.deadline <= now) {
      any_due = true;
      break;
    }
  }
  if (any_due) {
    handle_deadlines();
    posted = true;
  }
  // ... then an owed standalone ack on an otherwise idle eager track.
  if (ack_due_ && owes_ack()) posted |= try_send_standalone_ack();
  return posted;
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

void RailGuard::on_frame(drv::Track track, std::span<const std::byte> frame) {
  const bool quiesced = !alive();  // dead or probing
  auto env = proto::decode_frame_envelope(frame);
  if (!env) {
    if (!quiesced) metrics.malformed_drops.inc();
    return;
  }
  if (!proto::verify_frame_checksum(frame)) {
    // Corrupt bytes are never trusted — and never acked, so the sender's
    // retransmission heals the loss.
    if (!quiesced) metrics.crc_drops.inc();
    return;
  }
  // Reconnect handshake frames are processed in ANY state — that is how
  // resurrection reaches a dead rail — and carry their own epoch logic.
  if ((env->flags & (proto::kFrameReconnect | proto::kFrameReconnectAck)) != 0) {
    if (cfg_.ack_enabled) handle_handshake(*env);
    return;
  }
  if (quiesced) return;  // drop silently: the rail carries no traffic
  // Epoch fence: a frame sealed under another incarnation is never
  // trusted — its sequence numbers and acks belong to fenced state.
  // Epoch 0 is unfenced (legacy peers, raw-driver paths, ack-off tests).
  if (env->epoch != 0 && env->epoch != epoch_) {
    metrics.stale_frames_dropped.inc();
    return;
  }
  note_rx_alive();
  process_acks(*env);
  if ((env->flags & proto::kFrameProbe) != 0) {
    // Answer immediately when the eager track is free; otherwise owe a
    // standalone ack — it doubles as the probe answer.
    if (!try_send_control(proto::kFrameAckOnly | proto::kFrameProbeReply,
                          epoch_) &&
        cfg_.ack_enabled) {
      ack_due_ = true;
      hooks_.kick();
    }
    return;
  }
  if ((env->flags & proto::kFrameAckOnly) != 0) return;

  if (env->seq != 0 && !rx_accept(track, env->seq)) {
    // Duplicate (retransmission whose original arrived, or injected dup):
    // suppress delivery but force a re-ack — the duplicate usually means
    // our previous ack was lost.
    metrics.dup_frames.inc();
    rx_[static_cast<std::size_t>(track)].force_ack = true;
    if (cfg_.ack_enabled) {
      ack_due_ = true;
      hooks_.kick();
    }
    return;
  }
  if (env->seq != 0) note_ack_needed();
  hooks_.deliver(track, frame.subspan(proto::kFrameEnvelopeBytes));
}

bool RailGuard::rx_accept(drv::Track track, std::uint32_t seq) {
  RxTrack& rx = rx_[static_cast<std::size_t>(track)];
  if (seq <= rx.contiguous || rx.beyond.count(seq) != 0) return false;
  if (seq == rx.contiguous + 1) {
    rx.contiguous = seq;
    auto it = rx.beyond.begin();
    while (it != rx.beyond.end() && *it == rx.contiguous + 1) {
      rx.contiguous = *it;
      it = rx.beyond.erase(it);
    }
  } else {
    rx.beyond.insert(seq);
  }
  return true;
}

void RailGuard::process_acks(const proto::FrameEnvelope& env) {
  bool advanced = false;
  advanced |= apply_ack(drv::Track::kSmall, env.ack_small);
  advanced |= apply_ack(drv::Track::kLarge, env.ack_large);
  if (!advanced) return;
  metrics.acks_received.inc();
  consecutive_timeouts_ = 0;
  if (state() == RailState::kSuspect) {
    // An acknowledged probe: the rail recovered.
    transition(RailState::kHealthy);
  }
}

bool RailGuard::apply_ack(drv::Track track, std::uint32_t upto) {
  bool advanced = false;
  for (auto it = tx_.begin(); it != tx_.end();) {
    if (it->track == track && !it->acked && it->seq <= upto) {
      advanced = true;
      it->acked = true;
      if (estimator_ != nullptr && it->retries == 0) {
        // Karn's rule: only never-retransmitted frames yield an RTT — a
        // retried frame's ack is ambiguous about which copy it answers.
        const sim::TimeNs now = hooks_.now();
        estimator_->note_rtt(index_, now - it->posted_at, now);
      }
      if (it->locally_done) {
        auto contribs = std::move(it->contribs);
        it = tx_.erase(it);
        hooks_.credit(std::move(contribs));
        continue;
      }
    }
    ++it;
  }
  return advanced;
}

bool RailGuard::owes_ack() const noexcept {
  for (const RxTrack& rx : rx_) {
    if (rx.force_ack || rx.last_acked != rx.contiguous) return true;
  }
  return false;
}

void RailGuard::note_ack_needed() {
  if (!cfg_.ack_enabled || !owes_ack() || ack_timer_armed_) return;
  // Delay the standalone ack: outgoing data within the window piggybacks
  // the ack for free, which is the common case under load.
  ack_timer_armed_ = true;
  hooks_.timer(cfg_.ack_delay_ns, [this] {
    ack_timer_armed_ = false;
    if (!alive() || !owes_ack()) return;
    ack_due_ = true;
    if (!try_send_standalone_ack()) hooks_.kick();
  });
}

bool RailGuard::try_send_standalone_ack() {
  if (!try_send_control(proto::kFrameAckOnly, epoch_)) return false;
  metrics.acks_sent.inc();
  return true;
}

bool RailGuard::try_send_control(std::uint8_t flags, std::uint32_t epoch) {
  if (!driver_->send_idle(drv::Track::kSmall)) return false;
  drv::SendDesc desc;
  desc.track = drv::Track::kSmall;
  seal(desc, flags, 0, epoch);
  // Any envelope-only frame carries our cumulative acks: it settles every
  // owed re-ack exactly like a standalone ack would.
  rx_[0].force_ack = false;
  rx_[1].force_ack = false;
  ack_due_ = false;
  if (hooks_.note_post) hooks_.note_post(desc);
  driver_->post_send(std::move(desc), [this] { hooks_.kick(); });
  return true;
}

// --------------------------------------------------------------------------
// State machine
// --------------------------------------------------------------------------

void RailGuard::transition(RailState next) {
  if (state() == next) return;
  // Legal exits from dead: probing (our reconnect timer fired) and healthy
  // (we passively adopted the peer's new epoch). Everything else funnels
  // through the documented lattice in core/reliability.hpp.
  NMAD_LOG_INFO("rail", "rail%u: %s -> %s", index_, rail_state_name(state()),
                rail_state_name(next));
  state_.store(next, std::memory_order_relaxed);
  metrics.state_transitions.inc();
  metrics.state.set(static_cast<std::int64_t>(next));
  if (estimator_ != nullptr) estimator_->note_state(index_, next, hooks_.now());
  if (hooks_.on_state_change) hooks_.on_state_change(next);
}

void RailGuard::die(const char* reason) {
  if (state() == RailState::kDead) return;
  NMAD_LOG_WARN("rail", "rail%u declared dead: %s", index_, reason);
  transition(RailState::kDead);
  // The on_state_change hook has requeued our retained frames by now.
  // Start the resurrection cycle from a clean slate (if configured).
  probe_sent_at_ = 0;
  probe_misses_ = 0;
  pending_epoch_ = 0;
  reconnect_attempts_ = 0;
  reconnect_delay_ = cfg_.reconnect_backoff_ns;
  arm_reconnect_timer();
}

void RailGuard::on_driver_error(const drv::RailError& err) {
  NMAD_LOG_WARN("rail", "rail%u driver error on %s track: %s (%s, errno=%d)",
                index_, drv::track_name(err.track), err.detail.c_str(),
                drv::rail_error_name(err.kind), err.sys_errno);
  die("driver reported a hard failure");
}

std::vector<RailGuard::PendingFrame> RailGuard::take_unacked() {
  NMAD_ASSERT(state() == RailState::kDead, "take_unacked on a live rail");
  return surrender_tx();
}

std::vector<RailGuard::PendingFrame> RailGuard::surrender_tx() {
  std::vector<PendingFrame> out;
  out.reserve(tx_.size());
  for (TxEntry& e : tx_) {
    if (e.acked) {
      // The peer has the data; only local completion was pending (and the
      // driver will never report it now). Credit as sent.
      hooks_.credit(std::move(e.contribs));
      continue;
    }
    metrics.requeued_packets.inc();
    metrics.requeued_bytes.inc(e.desc.wire_size());
    out.push_back(PendingFrame{std::move(e.desc), std::move(e.contribs)});
  }
  tx_.clear();
  return out;
}

// --------------------------------------------------------------------------
// Keepalive probing
// --------------------------------------------------------------------------

void RailGuard::note_rx_alive() {
  last_rx_ = hooks_.now();
  probe_sent_at_ = 0;
  if (probe_misses_ != 0) {
    probe_misses_ = 0;
    // A keepalive-induced suspect (no retransmit timeouts pending) heals
    // on any valid receive; an RTO-induced one heals on ack advance.
    if (state() == RailState::kSuspect && consecutive_timeouts_ == 0) {
      transition(RailState::kHealthy);
    }
  }
}

void RailGuard::arm_keepalive_timer() {
  if (!cfg_.ack_enabled || !cfg_.keepalive_enabled || hooks_.timer == nullptr) {
    return;
  }
  if (keepalive_timer_armed_ || !alive()) return;
  keepalive_timer_armed_ = true;
  // While a probe is outstanding the next decision point is its timeout;
  // otherwise it is the idle threshold.
  const sim::TimeNs delay =
      probe_sent_at_ != 0 ? cfg_.probe_timeout_ns : cfg_.keepalive_idle_ns;
  hooks_.timer(delay, [this] { on_keepalive_timer(); });
}

void RailGuard::on_keepalive_timer() {
  keepalive_timer_armed_ = false;
  if (!alive()) return;  // the reconnect machinery owns dead/probing rails
  const sim::TimeNs now = hooks_.now();
  if (probe_sent_at_ != 0 && now - probe_sent_at_ >= cfg_.probe_timeout_ns) {
    probe_misses_ += 1;
    if (probe_misses_ >= cfg_.probe_max_misses) {
      die("keepalive probes unanswered");
      return;
    }
    if (state() == RailState::kHealthy &&
        probe_misses_ >= cfg_.suspect_after) {
      transition(RailState::kSuspect);
    }
    // Re-probe. A busy (or wedged) track still charges the next window —
    // a silent rail converges to dead either way.
    if (try_send_control(proto::kFrameAckOnly | proto::kFrameProbe, epoch_)) {
      metrics.probes_sent.inc();
    }
    probe_sent_at_ = now;
  } else if (probe_sent_at_ == 0 && now - last_rx_ >= cfg_.keepalive_idle_ns) {
    if (try_send_control(proto::kFrameAckOnly | proto::kFrameProbe, epoch_)) {
      metrics.probes_sent.inc();
    }
    // Charge the probe window even when the track refused the frame: an
    // idle rail whose track won't take an envelope-only probe is as
    // suspicious as one that swallows it (a dead port typically reports
    // itself busy). Either way, sustained silence converges to dead.
    probe_sent_at_ = now;
  }
  arm_keepalive_timer();
}

// --------------------------------------------------------------------------
// Reconnection (epoch-fenced resurrection)
// --------------------------------------------------------------------------

void RailGuard::arm_reconnect_timer() {
  if (!cfg_.ack_enabled || !cfg_.reconnect_enabled || hooks_.timer == nullptr) {
    return;
  }
  if (reconnect_timer_armed_) return;
  reconnect_timer_armed_ = true;
  if (reconnect_delay_ <= 0) reconnect_delay_ = cfg_.reconnect_backoff_ns;
  const sim::TimeNs delay = reconnect_delay_;
  // Capped exponential backoff for the attempt after this one.
  const double next = static_cast<double>(reconnect_delay_) *
                      cfg_.reconnect_backoff_factor;
  reconnect_delay_ = static_cast<sim::TimeNs>(
      std::min(next, static_cast<double>(cfg_.reconnect_backoff_max_ns)));
  hooks_.timer(delay, [this] { on_reconnect_timer(); });
}

void RailGuard::on_reconnect_timer() {
  reconnect_timer_armed_ = false;
  if (alive()) return;  // resurrected (or passively adopted) meanwhile
  if (state() == RailState::kDead) {
    transition(RailState::kProbing);
    pending_epoch_ = epoch_ + 1;
  }
  reconnect_attempts_ += 1;
  if (cfg_.reconnect_max_attempts != 0 &&
      reconnect_attempts_ > cfg_.reconnect_max_attempts) {
    NMAD_LOG_WARN("rail", "rail%u: giving up reconnecting after %u attempts",
                  index_, reconnect_attempts_ - 1);
    transition(RailState::kDead);
    return;
  }
  // Re-establish the endpoint, then propose the new incarnation. A failed
  // revive (or a busy track) just waits for the next backoff tick.
  if (driver_->revive()) {
    (void)try_send_control(proto::kFrameAckOnly | proto::kFrameReconnect,
                           pending_epoch_);
  }
  arm_reconnect_timer();
}

void RailGuard::handle_handshake(const proto::FrameEnvelope& env) {
  const std::uint32_t e = env.epoch;
  if ((env.flags & proto::kFrameReconnect) != 0) {
    if (e < epoch_) {
      metrics.stale_frames_dropped.inc();
      return;
    }
    if (e == epoch_) {
      // Our ReconnectAck was lost: re-ack the already-adopted epoch
      // without touching state (the adoption must stay idempotent).
      (void)try_send_control(proto::kFrameAckOnly | proto::kFrameReconnectAck,
                             epoch_);
      return;
    }
    // e > epoch_: the peer proposes a new incarnation. A dead endpoint
    // must come back first; a live one has nothing to re-establish.
    if (!driver_->revive()) return;
    adopt_epoch(e, /*initiated=*/false);
    (void)try_send_control(proto::kFrameAckOnly | proto::kFrameReconnectAck,
                           epoch_);
    return;
  }
  // kFrameReconnectAck: completes our own handshake.
  if (state() == RailState::kProbing && e == pending_epoch_) {
    adopt_epoch(e, /*initiated=*/true);
    return;
  }
  if (e < epoch_) metrics.stale_frames_dropped.inc();
  // e == epoch_ while healthy: duplicate ack of a completed handshake.
}

void RailGuard::adopt_epoch(std::uint32_t e, bool initiated) {
  const bool was_down = !alive();
  if (!tx_.empty()) {
    // Retained frames belong to the fenced incarnation: their sequence
    // numbers mean nothing under the new epoch. Hand them back for repost.
    std::vector<PendingFrame> frames = surrender_tx();
    if (hooks_.requeue) hooks_.requeue(std::move(frames));
  }
  reset_link_state();
  epoch_ = e;
  pending_epoch_ = 0;
  metrics.epoch.set(static_cast<std::int64_t>(epoch_));
  NMAD_LOG_INFO("rail", "rail%u: adopted epoch %u (%s)", index_, e,
                initiated ? "handshake completed" : "peer-initiated");
  if (state() != RailState::kHealthy) transition(RailState::kHealthy);
  if (was_down) {
    metrics.reconnects.inc();
    if (hooks_.on_revived) hooks_.on_revived();
  }
  arm_keepalive_timer();
}

void RailGuard::reset_link_state() {
  NMAD_ASSERT(tx_.empty(), "epoch reset with retained frames");
  next_seq_[0] = 0;
  next_seq_[1] = 0;
  rx_[0] = RxTrack{};
  rx_[1] = RxTrack{};
  consecutive_timeouts_ = 0;
  probe_sent_at_ = 0;
  probe_misses_ = 0;
  ack_due_ = false;
  last_rx_ = hooks_.now();
  reconnect_attempts_ = 0;
  reconnect_delay_ = cfg_.reconnect_backoff_ns;
}

}  // namespace nmad::core
