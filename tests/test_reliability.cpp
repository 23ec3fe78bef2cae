// RailGuard reliability tests: ack/retransmit protocol mechanics against a
// hand-cranked driver and clock (deterministic, no simulator), plus
// platform-level checks that the ack path is invisible on a clean network
// and that the legacy (ack-off) configuration keeps its exact semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/platform.hpp"
#include "core/rail_guard.hpp"
#include "core/reliability.hpp"
#include "drv/driver.hpp"
#include "proto/wire.hpp"
#include "test_packets.hpp"
#include "util/rng.hpp"

namespace {

using namespace nmad;
using namespace nmad::core;

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte(rng.next() & 0xff);
  return out;
}

/// Driver stub that records every posted frame (envelope + gathered packet)
/// and completes sends synchronously.
struct RecordingDriver final : drv::Driver {
  drv::Capabilities caps_{};
  struct Frame {
    drv::Track track;
    std::vector<std::byte> bytes;
  };
  std::vector<Frame> posted;
  bool idle[drv::kTrackCount] = {true, true};

  [[nodiscard]] const drv::Capabilities& caps() const noexcept override {
    return caps_;
  }
  [[nodiscard]] bool send_idle(drv::Track track) const noexcept override {
    return idle[static_cast<std::size_t>(track)];
  }
  void post_send(drv::SendDesc desc, Callback on_sent) override {
    Frame f;
    f.track = desc.track;
    f.bytes.assign(desc.envelope.begin(), desc.envelope.end());
    desc.view.gather_into(f.bytes);
    posted.push_back(std::move(f));
    if (on_sent) on_sent();
  }
  void set_deliver(DeliverFn) override {}
};

/// A RailGuard wired to a manual clock and a manual timer wheel.
struct GuardHarness {
  RecordingDriver drv;
  sim::TimeNs now = 0;
  struct Timer {
    sim::TimeNs at;
    std::function<void()> fn;
  };
  std::vector<Timer> timers;
  int credit_calls = 0;
  std::vector<std::vector<std::byte>> delivered;
  std::vector<RailState> transitions;
  std::vector<RailGuard::PendingFrame> requeued;
  int revived_calls = 0;
  int kicks = 0;
  RailGuard guard;

  explicit GuardHarness(ReliabilityConfig cfg) {
    RailGuard::Hooks hooks;
    hooks.now = [this] { return now; };
    hooks.timer = [this](sim::TimeNs delay, std::function<void()> fn) {
      timers.push_back({now + delay, std::move(fn)});
    };
    hooks.credit = [this](const std::vector<strat::Contribution>&) {
      ++credit_calls;
    };
    hooks.deliver = [this](drv::Track, std::span<const std::byte> packet) {
      delivered.emplace_back(packet.begin(), packet.end());
    };
    hooks.kick = [this] { ++kicks; };
    hooks.on_state_change = [this](RailState s) { transitions.push_back(s); };
    hooks.on_revived = [this] { ++revived_calls; };
    hooks.requeue = [this](std::vector<RailGuard::PendingFrame> frames) {
      for (auto& f : frames) requeued.push_back(std::move(f));
    };
    guard.init(drv, /*index=*/0, cfg, std::move(hooks));
  }

  /// Fire every timer due by `t` in deadline order (a fired timer may arm
  /// new ones), then settle the clock at `t`.
  void run_to(sim::TimeNs t) {
    for (;;) {
      std::size_t best = timers.size();
      for (std::size_t i = 0; i < timers.size(); ++i) {
        if (timers[i].at <= t && (best == timers.size() ||
                                  timers[i].at < timers[best].at)) {
          best = i;
        }
      }
      if (best == timers.size()) break;
      Timer timer = std::move(timers[best]);
      timers.erase(timers.begin() + static_cast<std::ptrdiff_t>(best));
      now = std::max(now, timer.at);
      timer.fn();
    }
    now = std::max(now, t);
  }
};

ReliabilityConfig deterministic_cfg() {
  ReliabilityConfig cfg;
  cfg.ack_enabled = true;
  cfg.rto_ns = 1'000'000;  // 1 ms
  cfg.rto_backoff = 2.0;
  cfg.rto_max_ns = 8'000'000;
  cfg.max_retries = 6;
  cfg.suspect_after = 2;
  cfg.ack_delay_ns = 200'000;
  cfg.rto_jitter = 0.0;  // exact deadlines for the assertions below
  return cfg;
}

drv::SendDesc make_data_desc(drv::Track track = drv::Track::kSmall) {
  const auto payload = random_bytes(32, 7);
  return drv::SendDesc(track, test::owned_data_packet(
                                  proto::SegHeader{1, 1, 0, 32, 32}, payload));
}

/// Build a sealed inbound frame as the peer's guard would: envelope
/// followed by the encoded packet.
std::vector<std::byte> make_frame(std::uint32_t seq,
                                  std::uint32_t ack_small = 0,
                                  std::uint32_t ack_large = 0,
                                  std::uint8_t flags = 0,
                                  std::uint32_t epoch = 0) {
  std::vector<std::byte> packet;
  if ((flags & proto::kFrameAckOnly) == 0) {
    packet = test::data_packet_bytes(proto::SegHeader{2, 1, 0, 16, 16},
                                     random_bytes(16, seq));
  }
  std::vector<std::byte> frame(proto::kFrameEnvelopeBytes + packet.size());
  std::copy(packet.begin(), packet.end(),
            frame.begin() + proto::kFrameEnvelopeBytes);
  proto::FrameEnvelope env;
  env.flags = flags;
  env.seq = seq;
  env.ack_small = ack_small;
  env.ack_large = ack_large;
  env.epoch = epoch;
  proto::seal_frame_envelope(
      std::span(frame).first(proto::kFrameEnvelopeBytes), env, packet, {});
  return frame;
}

/// Posted frames whose envelope carries `flag` (e.g. kFrameProbe).
std::size_t count_posted(const RecordingDriver& d, std::uint8_t flag) {
  std::size_t n = 0;
  for (const auto& f : d.posted) {
    const auto env = proto::decode_frame_envelope(f.bytes);
    if (env.has_value() && (env->flags & flag) != 0) ++n;
  }
  return n;
}

TEST(RailGuard, RetransmitsVerbatimUntilAckedThenCredits) {
  GuardHarness h(deterministic_cfg());
  h.guard.post(make_data_desc(), {});
  ASSERT_EQ(h.drv.posted.size(), 1u);
  ASSERT_EQ(h.guard.unacked_count(), 1u);
  EXPECT_EQ(h.credit_calls, 0);  // acks on: local completion is not enough

  const auto env0 = proto::decode_frame_envelope(h.drv.posted[0].bytes);
  ASSERT_TRUE(env0.has_value());
  EXPECT_EQ(env0->seq, 1u);

  // First timeout: retransmission must be byte-identical to the original.
  h.run_to(1'100'000);
  ASSERT_EQ(h.drv.posted.size(), 2u);
  EXPECT_EQ(h.drv.posted[1].bytes, h.drv.posted[0].bytes);
  EXPECT_TRUE(h.guard.healthy());  // one timeout < suspect_after

  // Second consecutive timeout (backoff doubled the deadline): suspect.
  h.run_to(3'200'000);
  ASSERT_EQ(h.drv.posted.size(), 3u);
  EXPECT_EQ(h.guard.state(), RailState::kSuspect);
  ASSERT_FALSE(h.transitions.empty());
  EXPECT_EQ(h.transitions.back(), RailState::kSuspect);

  // An ack of the probe heals the rail and finally credits the send.
  h.guard.on_frame(drv::Track::kSmall,
                   make_frame(0, /*ack_small=*/1, 0, proto::kFrameAckOnly));
  EXPECT_EQ(h.guard.state(), RailState::kHealthy);
  EXPECT_EQ(h.transitions.back(), RailState::kHealthy);
  EXPECT_EQ(h.guard.unacked_count(), 0u);
  EXPECT_EQ(h.credit_calls, 1);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.retransmits.value(), 2u);
    EXPECT_EQ(h.guard.metrics.timeouts.value(), 2u);
    EXPECT_EQ(h.guard.metrics.acks_received.value(), 1u);
  }
}

TEST(RailGuard, RetriesExhaustedDeclareTheRailDeadAndSurrenderFrames) {
  auto cfg = deterministic_cfg();
  cfg.max_retries = 3;
  GuardHarness h(cfg);
  h.guard.post(make_data_desc(drv::Track::kLarge), {});
  const auto original = h.drv.posted.at(0).bytes;

  h.run_to(1'000'000'000);  // nobody ever acks
  EXPECT_EQ(h.guard.state(), RailState::kDead);
  EXPECT_FALSE(h.guard.alive());
  EXPECT_EQ(h.transitions.back(), RailState::kDead);

  auto surrendered = h.guard.take_unacked();
  ASSERT_EQ(surrendered.size(), 1u);
  EXPECT_EQ(surrendered[0].desc.track, drv::Track::kLarge);
  EXPECT_EQ(h.guard.unacked_count(), 0u);
  EXPECT_EQ(h.credit_calls, 0);  // un-acked data is requeued, not credited
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.requeued_packets.value(), 1u);
    EXPECT_GT(h.guard.metrics.requeued_bytes.value(), 0u);
    EXPECT_EQ(h.guard.metrics.state.value(), 2);
  }
  // Death was reached strictly after max_retries timeouts, not before.
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.timeouts.value(), cfg.max_retries + 1);
  }
}

TEST(RailGuard, DriverErrorKillsTheRailImmediately) {
  GuardHarness h(deterministic_cfg());
  h.guard.post(make_data_desc(), {});
  drv::RailError err;
  err.kind = drv::RailErrorKind::kPeerGone;
  err.track = drv::Track::kSmall;
  err.detail = "peer closed connection";
  h.guard.on_driver_error(err);
  EXPECT_EQ(h.guard.state(), RailState::kDead);
  EXPECT_EQ(h.guard.take_unacked().size(), 1u);
}

TEST(RailGuard, DuplicateFramesAreSuppressedAndForceAReAck) {
  GuardHarness h(deterministic_cfg());
  const auto frame = make_frame(1);
  h.guard.on_frame(drv::Track::kSmall, frame);
  ASSERT_EQ(h.delivered.size(), 1u);
  const auto packet_bytes = std::vector<std::byte>(
      frame.begin() + proto::kFrameEnvelopeBytes, frame.end());
  EXPECT_EQ(h.delivered[0], packet_bytes);

  // Same sequence again (retransmission or injected duplicate): no second
  // delivery, but the guard owes the peer a fresh ack (its previous one was
  // presumably lost).
  h.guard.on_frame(drv::Track::kSmall, frame);
  EXPECT_EQ(h.delivered.size(), 1u);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.dup_frames.value(), 1u);
  }
  const auto posts_before = h.drv.posted.size();
  EXPECT_TRUE(h.guard.flush());  // emits the standalone ack
  ASSERT_EQ(h.drv.posted.size(), posts_before + 1);
  const auto& ack = h.drv.posted.back();
  EXPECT_EQ(ack.bytes.size(), proto::kFrameEnvelopeBytes);
  const auto env = proto::decode_frame_envelope(ack.bytes);
  ASSERT_TRUE(env.has_value());
  EXPECT_NE(env->flags & proto::kFrameAckOnly, 0);
  EXPECT_EQ(env->ack_small, 1u);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.acks_sent.value(), 1u);
  }
}

TEST(RailGuard, OutOfOrderFramesAllDeliverAndAckAdvancesContiguously) {
  GuardHarness h(deterministic_cfg());
  const auto f1 = make_frame(1), f2 = make_frame(2), f3 = make_frame(3);
  h.guard.on_frame(drv::Track::kSmall, f3);
  h.guard.on_frame(drv::Track::kSmall, f1);
  EXPECT_EQ(h.delivered.size(), 2u);
  // Ack after {1,3}: only seq 1 is contiguous.
  h.run_to(deterministic_cfg().ack_delay_ns + 1);
  const auto env_a = proto::decode_frame_envelope(h.drv.posted.back().bytes);
  ASSERT_TRUE(env_a.has_value());
  EXPECT_EQ(env_a->ack_small, 1u);
  // The hole fills: the cumulative ack jumps to 3.
  h.guard.on_frame(drv::Track::kSmall, f2);
  EXPECT_EQ(h.delivered.size(), 3u);
  h.run_to(h.now + deterministic_cfg().ack_delay_ns + 1);
  const auto env_b = proto::decode_frame_envelope(h.drv.posted.back().bytes);
  ASSERT_TRUE(env_b.has_value());
  EXPECT_EQ(env_b->ack_small, 3u);
}

TEST(RailGuard, CorruptAndMalformedFramesAreDroppedNotTrusted) {
  GuardHarness h(deterministic_cfg());
  auto frame = make_frame(1);
  auto corrupt = frame;
  corrupt[proto::kFrameEnvelopeBytes + 3] ^= std::byte{0x10};
  h.guard.on_frame(drv::Track::kSmall, corrupt);
  EXPECT_TRUE(h.delivered.empty());  // CRC mismatch: dropped, never acked

  h.guard.on_frame(drv::Track::kSmall,
                   std::span(frame).first(proto::kFrameEnvelopeBytes - 1));
  EXPECT_TRUE(h.delivered.empty());  // truncated: malformed

  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.crc_drops.value(), 1u);
    EXPECT_EQ(h.guard.metrics.malformed_drops.value(), 1u);
  }
  // The pristine copy still goes through (the retransmission path).
  h.guard.on_frame(drv::Track::kSmall, frame);
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(RailGuard, AckDisabledKeepsLegacyLocalCompletionSemantics) {
  ReliabilityConfig cfg;  // defaults: ack_enabled = false
  GuardHarness h(cfg);
  h.guard.post(make_data_desc(), {});
  // Local completion credits immediately; nothing retained, no timers.
  EXPECT_EQ(h.credit_calls, 1);
  EXPECT_EQ(h.guard.unacked_count(), 0u);
  EXPECT_TRUE(h.timers.empty());
  EXPECT_FALSE(h.guard.flush());
  // Frames are still sequenced and checksummed (corruption detection and
  // duplicate suppression work even without retransmission).
  const auto env = proto::decode_frame_envelope(h.drv.posted.at(0).bytes);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->seq, 1u);
  EXPECT_TRUE(proto::verify_frame_checksum(h.drv.posted[0].bytes));
}

// --------------------------------------------------------------------------
// Keepalive probing and epoch-fenced reconnection.
// --------------------------------------------------------------------------

ReliabilityConfig keepalive_cfg() {
  auto cfg = deterministic_cfg();
  cfg.keepalive_enabled = true;
  cfg.keepalive_idle_ns = 5'000'000;  // 5 ms idle before the first probe
  cfg.probe_timeout_ns = 2'000'000;   // 2 ms per unanswered probe
  cfg.probe_max_misses = 3;
  return cfg;
}

ReliabilityConfig reconnect_cfg() {
  auto cfg = deterministic_cfg();
  cfg.reconnect_enabled = true;
  cfg.reconnect_backoff_ns = 1'000'000;
  cfg.reconnect_backoff_factor = 2.0;
  cfg.reconnect_backoff_max_ns = 8'000'000;
  cfg.reconnect_max_attempts = 5;  // finite: the harness timer wheel drains
  return cfg;
}

TEST(RailGuard, KeepaliveDetectsSilentDeathOnAnIdleRail) {
  GuardHarness h(keepalive_cfg());
  EXPECT_TRUE(h.guard.healthy());
  // Zero application traffic: the probe cycle alone must walk the rail
  // through healthy -> suspect -> dead. Timeline: probe at 5 ms, misses at
  // 7/9/11 ms (re-probing each time), death on the third miss.
  h.run_to(12'000'000);
  EXPECT_EQ(h.guard.state(), RailState::kDead);
  EXPECT_EQ(count_posted(h.drv, proto::kFrameProbe), 3u);
  ASSERT_GE(h.transitions.size(), 2u);
  EXPECT_EQ(h.transitions[h.transitions.size() - 2], RailState::kSuspect);
  EXPECT_EQ(h.transitions.back(), RailState::kDead);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.probes_sent.value(), 3u);
  }
  // Every probe is an envelope-only frame stamped with the live epoch.
  for (const auto& f : h.drv.posted) {
    EXPECT_EQ(f.bytes.size(), proto::kFrameEnvelopeBytes);
    const auto env = proto::decode_frame_envelope(f.bytes);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->epoch, h.guard.epoch());
  }
}

TEST(RailGuard, ProbeReplyKeepsAnIdleRailHealthy) {
  GuardHarness h(keepalive_cfg());
  h.run_to(5'500'000);
  ASSERT_EQ(count_posted(h.drv, proto::kFrameProbe), 1u);
  // The peer answers: the rail is idle but alive, so no misses accumulate
  // and the next probe waits out a full idle window again.
  h.guard.on_frame(drv::Track::kSmall,
                   make_frame(0, 0, 0,
                              proto::kFrameAckOnly | proto::kFrameProbeReply,
                              h.guard.epoch()));
  h.run_to(9'000'000);
  EXPECT_TRUE(h.guard.healthy());
  EXPECT_EQ(count_posted(h.drv, proto::kFrameProbe), 1u);
  h.run_to(12'000'000);  // idle window expired again: probe #2
  EXPECT_EQ(count_posted(h.drv, proto::kFrameProbe), 2u);
  EXPECT_TRUE(h.guard.healthy());
}

TEST(RailGuard, IncomingProbeGetsAnImmediateReply) {
  GuardHarness h(deterministic_cfg());
  h.guard.on_frame(drv::Track::kSmall,
                   make_frame(0, 0, 0,
                              proto::kFrameAckOnly | proto::kFrameProbe));
  ASSERT_EQ(h.drv.posted.size(), 1u);
  const auto env = proto::decode_frame_envelope(h.drv.posted[0].bytes);
  ASSERT_TRUE(env.has_value());
  EXPECT_NE(env->flags & proto::kFrameProbeReply, 0);
  EXPECT_EQ(env->flags & proto::kFrameReconnect, 0);
  EXPECT_TRUE(h.delivered.empty());  // envelope-only: nothing to deliver
}

TEST(RailGuard, ReconnectHandshakeResurrectsADeadRail) {
  GuardHarness h(reconnect_cfg());
  h.guard.post(make_data_desc(), {});
  drv::RailError err;
  err.kind = drv::RailErrorKind::kPeerGone;
  err.track = drv::Track::kSmall;
  h.guard.on_driver_error(err);
  EXPECT_EQ(h.guard.state(), RailState::kDead);
  (void)h.guard.take_unacked();  // the scheduler's on_rail_dead would

  // First backoff tick: dead -> probing, a Reconnect proposing epoch 2.
  h.run_to(1'100'000);
  EXPECT_EQ(h.guard.state(), RailState::kProbing);
  ASSERT_GE(count_posted(h.drv, proto::kFrameReconnect), 1u);
  const auto env = proto::decode_frame_envelope(h.drv.posted.back().bytes);
  ASSERT_TRUE(env.has_value());
  EXPECT_NE(env->flags & proto::kFrameReconnect, 0);
  EXPECT_EQ(env->epoch, 2u);

  // While probing, data frames of the old incarnation are quiesced noise:
  // dropped silently, never delivered, never counted as protocol damage.
  h.guard.on_frame(drv::Track::kSmall, make_frame(1, 0, 0, 0, 1));
  EXPECT_TRUE(h.delivered.empty());
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.malformed_drops.value(), 0u);
  }

  // The peer's ack completes the handshake: healthy, epoch adopted.
  h.guard.on_frame(drv::Track::kSmall,
                   make_frame(0, 0, 0,
                              proto::kFrameAckOnly | proto::kFrameReconnectAck,
                              2));
  EXPECT_EQ(h.guard.state(), RailState::kHealthy);
  EXPECT_EQ(h.guard.epoch(), 2u);
  EXPECT_EQ(h.revived_calls, 1);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.reconnects.value(), 1u);
    EXPECT_EQ(h.guard.metrics.epoch.value(), 2);
  }
  // Sequencing restarted: the next data frame is seq 1 under epoch 2.
  h.guard.post(make_data_desc(), {});
  const auto env2 = proto::decode_frame_envelope(h.drv.posted.back().bytes);
  ASSERT_TRUE(env2.has_value());
  EXPECT_EQ(env2->seq, 1u);
  EXPECT_EQ(env2->epoch, 2u);
  // The peer acks it under the new epoch; the straggling backoff timer
  // then finds the rail alive and stands down.
  h.guard.on_frame(drv::Track::kSmall,
                   make_frame(0, /*ack_small=*/1, 0, proto::kFrameAckOnly, 2));
  EXPECT_EQ(h.guard.unacked_count(), 0u);
  h.run_to(1'000'000'000);
  EXPECT_EQ(h.guard.state(), RailState::kHealthy);
}

TEST(RailGuard, ReconnectGivesUpAfterMaxAttemptsAndStaysDead) {
  auto cfg = reconnect_cfg();
  cfg.reconnect_max_attempts = 2;
  GuardHarness h(cfg);
  drv::RailError err;
  err.kind = drv::RailErrorKind::kSendFailed;
  err.track = drv::Track::kLarge;
  h.guard.on_driver_error(err);
  h.run_to(1'000'000'000);  // nobody ever answers the Reconnect frames
  EXPECT_EQ(h.guard.state(), RailState::kDead);
  EXPECT_EQ(h.transitions.back(), RailState::kDead);
  EXPECT_EQ(count_posted(h.drv, proto::kFrameReconnect), 2u);
  EXPECT_TRUE(h.timers.empty());  // gave up: no timer left ticking
}

TEST(RailGuard, PeerInitiatedReconnectAdoptsEpochAndFencesStaleFrames) {
  // Passive adoption needs only the ack machinery — reconnect_enabled
  // governs who *initiates*, not who answers.
  GuardHarness h(deterministic_cfg());
  h.guard.post(make_data_desc(), {});  // one retained frame in epoch 1
  ASSERT_EQ(h.guard.unacked_count(), 1u);

  h.guard.on_frame(drv::Track::kSmall,
                   make_frame(0, 0, 0,
                              proto::kFrameAckOnly | proto::kFrameReconnect,
                              5));
  EXPECT_EQ(h.guard.state(), RailState::kHealthy);
  EXPECT_EQ(h.guard.epoch(), 5u);
  // The retained epoch-1 frame was surrendered for repost, not dropped.
  EXPECT_EQ(h.guard.unacked_count(), 0u);
  ASSERT_EQ(h.requeued.size(), 1u);
  EXPECT_EQ(h.credit_calls, 0);
  // A live endpoint adopting a new epoch is not a resurrection.
  EXPECT_EQ(h.revived_calls, 0);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.reconnects.value(), 0u);
  }
  // The adoption was acked with the new epoch.
  ASSERT_GE(count_posted(h.drv, proto::kFrameReconnectAck), 1u);
  const auto ack = proto::decode_frame_envelope(h.drv.posted.back().bytes);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->epoch, 5u);

  // Epoch fencing: frames of the old incarnation die at the door, frames
  // of the new one (and unfenced raw frames) deliver.
  h.guard.on_frame(drv::Track::kSmall, make_frame(1, 0, 0, 0, 1));
  EXPECT_TRUE(h.delivered.empty());
  h.guard.on_frame(drv::Track::kSmall, make_frame(1, 0, 0, 0, 5));
  EXPECT_EQ(h.delivered.size(), 1u);
  h.guard.on_frame(drv::Track::kSmall, make_frame(2, 0, 0, 0, 0));
  EXPECT_EQ(h.delivered.size(), 2u);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(h.guard.metrics.stale_frames_dropped.value(), 1u);
  }

  // A duplicate Reconnect for the adopted epoch re-acks idempotently.
  const auto posts_before = h.drv.posted.size();
  h.guard.on_frame(drv::Track::kSmall,
                   make_frame(0, 0, 0,
                              proto::kFrameAckOnly | proto::kFrameReconnect,
                              5));
  EXPECT_EQ(h.guard.epoch(), 5u);
  EXPECT_EQ(h.drv.posted.size(), posts_before + 1);
  EXPECT_EQ(count_posted(h.drv, proto::kFrameReconnectAck), 2u);
}

// --------------------------------------------------------------------------
// Platform-level: the ack path on a clean (lossless) network.
// --------------------------------------------------------------------------

TEST(Reliability, CleanPlatformWithAcksIsRetransmitFree) {
  strat::StrategyConfig cfg;
  cfg.reliability.ack_enabled = true;
  TwoNodePlatform p(pin_serial(paper_platform("aggreg_greedy", cfg)));

  util::Xoshiro256 rng(31);
  std::vector<std::vector<std::byte>> payloads, sinks;
  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  for (int i = 0; i < 12; ++i) {
    payloads.push_back(random_bytes(1 + rng.next_below(200000), 40 + i));
    sinks.emplace_back(payloads.back().size());
  }
  for (int i = 0; i < 12; ++i) {
    recvs.push_back(p.b().irecv(p.gate_ba(), 0, sinks[i]));
  }
  for (int i = 0; i < 12; ++i) {
    sends.push_back(p.a().isend(p.gate_ab(), 0, payloads[i]));
  }
  p.a().wait_all(sends, recvs);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(sinks[i], payloads[i]) << i;

  // Drain trailing delayed acks, then: nothing retained, nobody suspected,
  // and — the CI bench gate's invariant — zero retransmits without faults.
  p.world().engine().run();
  for (Session* s : {&p.a(), &p.b()}) {
    auto& gate = s->scheduler().gate(0);
    for (auto& rail : gate.rails()) {
      EXPECT_EQ(rail.guard.state(), RailState::kHealthy);
      EXPECT_EQ(rail.guard.unacked_count(), 0u);
      if (obs::kMetricsEnabled) {
        EXPECT_EQ(rail.guard.metrics.retransmits.value(), 0u);
        EXPECT_EQ(rail.guard.metrics.timeouts.value(), 0u);
        EXPECT_EQ(rail.guard.metrics.crc_drops.value(), 0u);
        EXPECT_EQ(rail.guard.metrics.state.value(), 0);
      }
    }
  }
  if (obs::kMetricsEnabled) {
    // The protocol actually ran: acks flowed back to the sender.
    std::uint64_t acked = 0;
    for (auto& rail : p.a().scheduler().gate(0).rails()) {
      acked += rail.guard.metrics.acks_received.value();
    }
    EXPECT_GT(acked, 0u);
  }
}

TEST(Reliability, DefaultConfigArmsNoTimersAndEmitsNoAcks) {
  TwoNodePlatform p(pin_serial(paper_platform("aggreg_greedy")));
  const auto payload = random_bytes(150000, 77);
  std::vector<std::byte> sink(payload.size());
  auto recv = p.b().irecv(p.gate_ba(), 2, sink);
  auto send = p.a().isend(p.gate_ab(), 2, payload);
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_EQ(sink, payload);
  p.world().engine().run();
  for (Session* s : {&p.a(), &p.b()}) {
    for (auto& rail : s->scheduler().gate(0).rails()) {
      EXPECT_EQ(rail.guard.unacked_count(), 0u);
      if (obs::kMetricsEnabled) {
        EXPECT_EQ(rail.guard.metrics.acks_sent.value(), 0u);
        EXPECT_EQ(rail.guard.metrics.acks_received.value(), 0u);
        EXPECT_EQ(rail.guard.metrics.retransmits.value(), 0u);
      }
    }
  }
}

}  // namespace
