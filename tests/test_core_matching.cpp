// Core-layer semantics: receive matching, unexpected messages, late
// receives, rendezvous gating, per-tag ordering, zero-length messages,
// and the pack/unpack collect-layer API.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/platform.hpp"
#include "drv/sim_driver.hpp"
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

TwoNodePlatform make_platform(const char* strategy = "aggreg_greedy") {
  return TwoNodePlatform(pin_serial(paper_platform(strategy)));
}

TEST(Matching, UnexpectedEagerMessageBuffersUntilRecvPosted) {
  auto p = make_platform();
  const auto payload = random_bytes(512, 1);
  auto send = p.a().isend(p.gate_ab(), 5, payload);
  p.a().wait(send);  // message has fully arrived at b, no recv posted

  std::vector<std::byte> sink(512);
  auto recv = p.b().irecv(p.gate_ba(), 5, sink);
  p.b().wait(recv);
  EXPECT_EQ(sink, payload);
  EXPECT_EQ(recv->received_len(), 512u);
  // The late receive completes "now", not at packet-arrival time.
  EXPECT_EQ(recv->completion_time(), p.now());
}

TEST(Matching, RendezvousWaitsForReceivePosting) {
  auto p = make_platform();
  const auto payload = random_bytes(1 << 20, 2);
  auto send = p.a().isend(p.gate_ab(), 5, payload);

  // Drain the world: without a posted recv the RDV must not be granted and
  // the bulk data must not move.
  p.world().engine().run();
  EXPECT_FALSE(send->completed());
  EXPECT_EQ(p.rails_a()[0]->stats().dma_packets +
                p.rails_a()[1]->stats().dma_packets,
            0u);

  std::vector<std::byte> sink(1 << 20);
  auto recv = p.b().irecv(p.gate_ba(), 5, sink);
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_EQ(sink, payload);
}

TEST(Matching, TagsMatchIndependently) {
  auto p = make_platform();
  const auto pay_a = random_bytes(100, 3);
  const auto pay_b = random_bytes(200, 4);

  // Post receives in the opposite tag order from the sends.
  std::vector<std::byte> sink_b(200), sink_a(100);
  auto recv_b = p.b().irecv(p.gate_ba(), 20, sink_b);
  auto recv_a = p.b().irecv(p.gate_ba(), 10, sink_a);

  auto send_a = p.a().isend(p.gate_ab(), 10, pay_a);
  auto send_b = p.a().isend(p.gate_ab(), 20, pay_b);
  p.b().wait(recv_a);
  p.b().wait(recv_b);
  p.a().wait(send_a);
  p.a().wait(send_b);
  EXPECT_EQ(sink_a, pay_a);
  EXPECT_EQ(sink_b, pay_b);
}

TEST(Matching, SameTagMatchesInSendOrder) {
  auto p = make_platform();
  const auto first = random_bytes(300, 5);
  const auto second = random_bytes(300, 6);

  std::vector<std::byte> sink1(300), sink2(300);
  auto recv1 = p.b().irecv(p.gate_ba(), 1, sink1);
  auto recv2 = p.b().irecv(p.gate_ba(), 1, sink2);
  auto s1 = p.a().isend(p.gate_ab(), 1, first);
  auto s2 = p.a().isend(p.gate_ab(), 1, second);
  p.b().wait(recv1);
  p.b().wait(recv2);
  p.a().wait(s1);
  p.a().wait(s2);
  EXPECT_EQ(sink1, first);
  EXPECT_EQ(sink2, second);
}

TEST(Matching, MixedSizesSameTagKeepOrderAcrossPaths) {
  // A large (rendezvous) message followed by a small (eager) one with the
  // same tag: the eager packet overtakes on the wire, but per-tag sequence
  // numbers keep the matching correct.
  auto p = make_platform();
  const auto big = random_bytes(256 * 1024, 7);
  const auto small = random_bytes(64, 8);

  std::vector<std::byte> sink_big(256 * 1024), sink_small(64);
  auto recv_big = p.b().irecv(p.gate_ba(), 9, sink_big);
  auto recv_small = p.b().irecv(p.gate_ba(), 9, sink_small);
  auto s1 = p.a().isend(p.gate_ab(), 9, big);
  auto s2 = p.a().isend(p.gate_ab(), 9, small);
  p.b().wait(recv_big);
  p.b().wait(recv_small);
  p.a().wait(s1);
  p.a().wait(s2);
  EXPECT_EQ(sink_big, big);
  EXPECT_EQ(sink_small, small);
}

TEST(Matching, ZeroLengthMessageCompletesBothSides) {
  auto p = make_platform();
  auto recv = p.b().irecv(p.gate_ba(), 3, {});
  auto send = p.a().isend(p.gate_ab(), 3, {});
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_EQ(recv->received_len(), 0u);
  EXPECT_TRUE(send->completed());
}

TEST(Matching, ReceiveBufferMayBeLargerThanMessage) {
  auto p = make_platform();
  const auto payload = random_bytes(100, 9);
  std::vector<std::byte> sink(1000, std::byte{0xcc});
  auto recv = p.b().irecv(p.gate_ba(), 1, sink);
  auto send = p.a().isend(p.gate_ab(), 1, payload);
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_EQ(recv->received_len(), 100u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), sink.begin()));
  EXPECT_EQ(sink[100], std::byte{0xcc});  // rest untouched
}

TEST(Matching, LateRecvForPartiallyArrivedMultiSegmentMessage) {
  // Submit a mixed message (eager head + rendezvous bulk). The eager part
  // arrives into unexpected storage; posting the receive later must migrate
  // it and let the DMA land directly in the user buffer.
  auto p = make_platform();
  const auto head = random_bytes(1024, 10);
  const auto bulk = random_bytes(512 * 1024, 11);

  auto pack = p.a().pack(p.gate_ab(), 2);
  pack.add(head).add(bulk);
  auto send = pack.submit();
  p.world().engine().run();  // eager head delivered unexpected; RDV parked
  EXPECT_FALSE(send->completed());

  std::vector<std::byte> sink(head.size() + bulk.size());
  auto recv = p.b().irecv(p.gate_ba(), 2, sink);
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), sink.begin()));
  EXPECT_TRUE(std::equal(bulk.begin(), bulk.end(), sink.begin() + head.size()));
}

TEST(PackUnpack, ScatterGatherRoundTrip) {
  auto p = make_platform();
  const auto seg1 = random_bytes(100, 12);
  const auto seg2 = random_bytes(5000, 13);
  const auto seg3 = random_bytes(3, 14);

  auto pack = p.a().pack(p.gate_ab(), 4);
  pack.add(seg1).add(seg2).add(seg3);

  std::vector<std::byte> out1(100), out2(5000), out3(3);
  auto unpack = p.b().unpack(p.gate_ba(), 4);
  unpack.add(out1).add(out2).add(out3);

  auto recv = unpack.submit();
  auto send = pack.submit();
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_EQ(out1, seg1);
  EXPECT_EQ(out2, seg2);
  EXPECT_EQ(out3, seg3);
}

TEST(PackUnpack, UnpackSegmentationMayDifferFromPack) {
  // The receiver's extraction layout is independent of the sender's
  // construction layout — only total size matters.
  auto p = make_platform();
  const auto data = random_bytes(600, 15);

  auto pack = p.a().pack(p.gate_ab(), 4);
  pack.add(std::span(data).subspan(0, 200)).add(std::span(data).subspan(200));

  std::vector<std::byte> out1(450), out2(150);
  auto unpack = p.b().unpack(p.gate_ba(), 4);
  unpack.add(out1).add(out2);

  auto recv = unpack.submit();
  auto send = pack.submit();
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_TRUE(std::equal(out1.begin(), out1.end(), data.begin()));
  EXPECT_TRUE(std::equal(out2.begin(), out2.end(), data.begin() + 450));
}

TEST(PackUnpack, UnexpectedStripedMessageScattersIntoSegments) {
  // A 1 MB message behind three eager head segments is sent before the
  // unpack is posted: the heads land in unexpected-message storage, and
  // posting the unpack must move them into three uneven segments (rebind)
  // before the granted bulk is striped over both rails straight into the
  // last one. The data is in place as soon as the world has delivered it —
  // no wait() involved — and the spare tail stays untouched.
  auto p = make_platform("split_balance");
  const auto h1 = random_bytes(2000, 30);
  const auto h2 = random_bytes(3000, 31);
  const auto h3 = random_bytes(1500, 32);
  const auto bulk = random_bytes(1 << 20, 33);
  std::vector<std::byte> message;
  for (const auto* part : {&h1, &h2, &h3, &bulk}) {
    message.insert(message.end(), part->begin(), part->end());
  }

  auto pack = p.a().pack(p.gate_ab(), 6);
  pack.add(h1).add(h2).add(h3).add(bulk);
  auto send = pack.submit();
  p.world().engine().run();  // heads delivered unexpected; RDV parked
  EXPECT_FALSE(send->completed());

  // Boundaries at 2500 (inside h2) and 5500 (inside h3); 64 spare bytes.
  constexpr std::size_t kSpare = 64;
  std::vector<std::byte> out1(2500), out2(3000);
  std::vector<std::byte> out3(message.size() - 5500 + kSpare, std::byte{0xee});
  auto unpack = p.b().unpack(p.gate_ba(), 6);
  unpack.add(out1).add(out2).add(out3);
  auto recv = unpack.submit();
  p.world().engine().run();

  ASSERT_TRUE(Session::test(recv));
  EXPECT_EQ(recv->received_len(), message.size());
  EXPECT_TRUE(std::equal(out1.begin(), out1.end(), message.begin()));
  EXPECT_TRUE(std::equal(out2.begin(), out2.end(), message.begin() + 2500));
  EXPECT_TRUE(std::equal(out3.begin(), out3.end() - kSpare, message.begin() + 5500));
  EXPECT_EQ(std::vector<std::byte>(out3.end() - kSpare, out3.end()),
            std::vector<std::byte>(kSpare, std::byte{0xee}));
  // The bulk was striped: both rails carried DMA chunks.
  EXPECT_GT(p.rails_a()[0]->stats().dma_packets, 0u);
  EXPECT_GT(p.rails_a()[1]->stats().dma_packets, 0u);
  p.a().wait(send);
}

TEST(Matching, BidirectionalSimultaneousTraffic) {
  auto p = make_platform();
  const auto pay_ab = random_bytes(100000, 16);
  const auto pay_ba = random_bytes(70000, 17);

  std::vector<std::byte> sink_b(100000), sink_a(70000);
  auto recv_b = p.b().irecv(p.gate_ba(), 1, sink_b);
  auto recv_a = p.a().irecv(p.gate_ab(), 1, sink_a);
  auto send_ab = p.a().isend(p.gate_ab(), 1, pay_ab);
  auto send_ba = p.b().isend(p.gate_ba(), 1, pay_ba);

  p.a().wait_all(std::vector<SendHandle>{send_ab}, std::vector<RecvHandle>{recv_a});
  p.b().wait_all(std::vector<SendHandle>{send_ba}, std::vector<RecvHandle>{recv_b});
  EXPECT_EQ(sink_b, pay_ab);
  EXPECT_EQ(sink_a, pay_ba);
}

TEST(Scheduler, PendingRequestsDrainToZero) {
  auto p = make_platform();
  const auto payload = random_bytes(50000, 18);
  std::vector<std::byte> sink(50000);
  auto recv = p.b().irecv(p.gate_ba(), 0, sink);
  auto send = p.a().isend(p.gate_ab(), 0, payload);
  EXPECT_GE(p.a().scheduler().pending_requests(), 1u);
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_EQ(p.a().scheduler().pending_requests(), 0u);
  EXPECT_EQ(p.b().scheduler().pending_requests(), 0u);
  EXPECT_FALSE(p.a().scheduler().gate(p.gate_ab()).strategy().has_backlog());
}

TEST(Scheduler, OptimizationWindowAggregatesBurst) {
  // Back-to-back isends in one progression round must end up in one packet
  // under an aggregating strategy — the deferred-processing design of §2.
  auto p = make_platform("aggreg_greedy");
  const int kMessages = 8;
  const auto payload = random_bytes(64, 19);

  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  std::vector<std::vector<std::byte>> sinks(kMessages, std::vector<std::byte>(64));
  for (int i = 0; i < kMessages; ++i) {
    recvs.push_back(p.b().irecv(p.gate_ba(), 0, sinks[i]));
  }
  for (int i = 0; i < kMessages; ++i) {
    sends.push_back(p.a().isend(p.gate_ab(), 0, payload));
  }
  p.b().wait_all(sends, recvs);

  // All eight 64-byte messages traveled in a single eager packet on the
  // fastest rail (Quadrics, index 1).
  auto& gate = p.a().scheduler().gate(p.gate_ab());
  EXPECT_EQ(gate.rail(1).tx.packets[0], 1u);
  EXPECT_EQ(gate.rail(1).tx.segments, 8u);
  EXPECT_EQ(gate.rail(0).tx.packets[0], 0u);
  for (auto& s : sinks) EXPECT_EQ(s, payload);
}

TEST(Gate, RatioNormalizationAndAccessors) {
  auto p = make_platform();
  auto& gate = p.a().scheduler().gate(p.gate_ab());
  EXPECT_EQ(gate.rail_count(), 2u);
  EXPECT_EQ(gate.fastest_rail(), 1u);  // quadrics
  EXPECT_EQ(gate.small_threshold(), 8u * 1024);

  gate.set_ratios({3.0, 1.0});
  EXPECT_DOUBLE_EQ(gate.ratio(0), 0.75);
  EXPECT_DOUBLE_EQ(gate.ratio(1), 0.25);

  // Defaults derive from capability bandwidths (myri > quadrics).
  auto q = make_platform();
  auto& gate_q = q.a().scheduler().gate(q.gate_ab());
  EXPECT_GT(gate_q.ratio(0), gate_q.ratio(1));
  EXPECT_NEAR(gate_q.ratio(0) + gate_q.ratio(1), 1.0, 1e-12);
}

// --- a scheduler stepped by hand ---------------------------------------------

/// Driver stub that keeps the deliver upcall the scheduler installs, so a
/// test can hand the gate arbitrary frames, and completes sends at once.
struct InjectDriver final : drv::Driver {
  drv::Capabilities caps_{.name = "inject", .bandwidth_mbps = 1000.0};
  DeliverFn deliver;
  [[nodiscard]] const drv::Capabilities& caps() const noexcept override {
    return caps_;
  }
  [[nodiscard]] bool send_idle(drv::Track) const noexcept override { return true; }
  void post_send(drv::SendDesc, Callback on_sent) override {
    if (on_sent) on_sent();
  }
  void set_deliver(DeliverFn fn) override { deliver = std::move(fn); }
};

/// One gate over an InjectDriver, with a manual clock and a deferred-work
/// queue the test drains itself.
struct SteppedGate {
  InjectDriver drv;
  std::vector<std::function<void()>> deferred;
  Scheduler sched{[] { return sim::TimeNs{0}; },
                  [this](std::function<void()> fn) { deferred.push_back(std::move(fn)); }};
  GateId gate = sched.add_gate({&drv}, strat::make_strategy("single_rail"));

  void drain() {
    while (!deferred.empty()) {
      auto fn = std::move(deferred.front());
      deferred.erase(deferred.begin());
      fn();
    }
  }
  /// Seal `packet` in an unsequenced envelope, as a peer's guard would,
  /// and hand it to the gate.
  void inject(const std::vector<std::byte>& packet) {
    std::vector<std::byte> frame(proto::kFrameEnvelopeBytes);
    proto::seal_frame_envelope(frame, proto::FrameEnvelope{}, packet, {});
    frame.insert(frame.end(), packet.begin(), packet.end());
    drv.deliver(drv::Track::kSmall, frame);
    drain();
  }
  [[nodiscard]] std::uint64_t malformed() {
    return sched.gate(gate).rail(0).guard.metrics.malformed_drops.value();
  }
};

TEST(Matching, ContradictoryTotalLengthIsDroppedNotFatal) {
  SteppedGate g;
  const auto payload = random_bytes(8, 11);
  const auto chunk = [&](std::uint32_t offset, std::uint32_t total) {
    return test::data_packet_bytes(
        proto::SegHeader{9, 0, offset, 4, total},
        std::span(payload).subspan(offset, 4));
  };

  std::vector<std::byte> sink(8);
  const std::span<std::byte> dest = sink;
  RecvHandle recv = g.sched.irecv(g.gate, 9, std::span(&dest, 1));
  g.drain();
  g.inject(chunk(0, 8));
  EXPECT_FALSE(recv->done());

  // A valid frame whose chunk claims a 16-byte message: the peer contradicts
  // the 8 bytes its first chunk announced. Dropped and counted; the process
  // and the message survive.
  g.inject(chunk(4, 16));
  EXPECT_FALSE(recv->done());
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(g.malformed(), 1u);
  }

  // The consistent chunk still completes the message byte-exact, and a later
  // message on the same stream arrives untouched.
  g.inject(chunk(4, 8));
  ASSERT_TRUE(recv->completed());
  EXPECT_EQ(sink, payload);

  const auto next = random_bytes(5, 12);
  std::vector<std::byte> sink2(5);
  const std::span<std::byte> dest2 = sink2;
  RecvHandle recv2 = g.sched.irecv(g.gate, 9, std::span(&dest2, 1));
  g.drain();
  g.inject(test::data_packet_bytes(proto::SegHeader{9, 1, 0, 5, 5}, next));
  ASSERT_TRUE(recv2->completed());
  EXPECT_EQ(sink2, next);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(g.malformed(), 1u);
  }
}

}  // namespace
