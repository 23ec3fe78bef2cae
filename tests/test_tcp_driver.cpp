// TCP-driver tests: the identical core/strategy stack over real kernel
// sockets (socketpair endpoints, single process, RealWorld pump).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "drv/real_world.hpp"
#include "drv/tcp_driver.hpp"
#include "proto/wire.hpp"
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

/// Two sessions in one process over a socketpair rail, both pumped by one
/// RealWorld.
struct TcpFixture {
  drv::RealWorld world;
  std::unique_ptr<drv::TcpDriver> drv_a, drv_b;
  std::unique_ptr<Session> a, b;
  GateId gate_ab = 0, gate_ba = 0;

  explicit TcpFixture(const char* strategy = "aggreg") {
    std::tie(drv_a, drv_b) = drv::TcpDriver::create_pair();
    world.attach(drv_a.get());
    world.attach(drv_b.get());
    auto clock = [this] { return world.now(); };
    auto defer = [this](std::function<void()> fn) { world.defer(std::move(fn)); };
    auto progress = [this](const std::function<bool()>& pred) {
      world.progress_until(pred);
    };
    a = std::make_unique<Session>("A", clock, defer, progress);
    b = std::make_unique<Session>("B", clock, defer, progress);
    gate_ab = a->connect({drv_a.get()}, strategy);
    gate_ba = b->connect({drv_b.get()}, strategy);
  }
};

TEST(TcpDriver, SmallMessageRoundTrip) {
  TcpFixture f;
  const auto payload = random_bytes(1000, 1);
  std::vector<std::byte> sink(1000);
  auto recv = f.b->irecv(f.gate_ba, 1, sink);
  auto send = f.a->isend(f.gate_ab, 1, payload);
  f.b->wait(recv);
  f.a->wait(send);
  EXPECT_EQ(sink, payload);
}

TEST(TcpDriver, LargeMessageUsesRendezvousOverSockets) {
  TcpFixture f;
  const auto payload = random_bytes(2 << 20, 2);
  std::vector<std::byte> sink(2 << 20);
  auto recv = f.b->irecv(f.gate_ba, 1, sink);
  auto send = f.a->isend(f.gate_ab, 1, payload);
  f.b->wait(recv);
  f.a->wait(send);
  EXPECT_EQ(sink, payload);
  // Bulk data flowed as rendezvous chunks plus control frames.
  EXPECT_GE(f.drv_a->stats().packets_sent, 2u);   // RDV_REQ + chunk(s)
  EXPECT_GE(f.drv_b->stats().packets_sent, 1u);   // RDV_ACK
}

TEST(TcpDriver, UnexpectedMessageBuffersUntilRecv) {
  TcpFixture f;
  const auto payload = random_bytes(128, 3);
  auto send = f.a->isend(f.gate_ab, 9, payload);
  f.a->wait(send);
  // Let the frame actually arrive and sit unexpected.
  for (int i = 0; i < 100; ++i) f.world.progress_once();

  std::vector<std::byte> sink(128);
  auto recv = f.b->irecv(f.gate_ba, 9, sink);
  f.b->wait(recv);
  EXPECT_EQ(sink, payload);
}

TEST(TcpDriver, ManyMessagesBothDirections) {
  TcpFixture f;
  constexpr int kCount = 40;
  std::vector<std::vector<std::byte>> payloads, sinks;
  std::vector<SendHandle> sends;
  std::vector<RecvHandle> recvs;
  util::Xoshiro256 rng(4);

  for (int i = 0; i < kCount; ++i) {
    payloads.push_back(random_bytes(rng.next_below(60000), 100 + i));
    sinks.emplace_back(payloads.back().size());
  }
  for (int i = 0; i < kCount; ++i) {
    recvs.push_back(i % 2 == 0 ? f.b->irecv(f.gate_ba, 0, sinks[i])
                               : f.a->irecv(f.gate_ab, 0, sinks[i]));
  }
  for (int i = 0; i < kCount; ++i) {
    sends.push_back(i % 2 == 0 ? f.a->isend(f.gate_ab, 0, payloads[i])
                               : f.b->isend(f.gate_ba, 0, payloads[i]));
  }
  f.a->wait_all(sends, recvs);
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(sinks[i], payloads[i]) << i;
}

TEST(TcpDriver, AggregationHappensOverSocketsToo) {
  TcpFixture f("aggreg");
  constexpr int kCount = 6;
  const auto payload = random_bytes(50, 5);
  std::vector<std::vector<std::byte>> sinks(kCount, std::vector<std::byte>(50));
  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  for (int i = 0; i < kCount; ++i) {
    recvs.push_back(f.b->irecv(f.gate_ba, 0, sinks[i]));
  }
  for (int i = 0; i < kCount; ++i) {
    sends.push_back(f.a->isend(f.gate_ab, 0, payload));
  }
  f.a->wait_all(sends, recvs);
  for (auto& s : sinks) EXPECT_EQ(s, payload);
  // All six submissions were queued before the first progression round, so
  // the strategy coalesced them into one frame.
  EXPECT_EQ(f.drv_a->stats().packets_sent, 1u);
}

TEST(TcpDriver, PeerCloseSurfacesRailErrorInsteadOfCrashing) {
  auto [da, db] = drv::TcpDriver::create_pair();
  da->set_deliver([](drv::Track, std::span<const std::byte>) {});
  std::vector<drv::RailError> errors;
  da->set_error([&](const drv::RailError& e) { errors.push_back(e); });

  // The peer endpoint goes away (clean close of both track sockets).
  db.reset();

  for (int i = 0; i < 1000 && errors.empty(); ++i) da->progress();
  ASSERT_FALSE(errors.empty()) << "peer close never surfaced";
  for (const auto& e : errors) {
    EXPECT_EQ(e.kind, drv::RailErrorKind::kPeerGone);
    EXPECT_TRUE(da->failed(e.track));
    EXPECT_FALSE(da->send_idle(e.track));  // parked, never idle again
  }
  EXPECT_GE(da->stats().rail_errors, 1u);
  // Further progression on the dead endpoint is a harmless no-op.
  for (int i = 0; i < 10; ++i) da->progress();
}

TEST(TcpDriver, PeerProcessExitFailsPendingRequestsCleanly) {
  // Regression for the original failure mode: one side of a transfer
  // _exit()s and the survivor used to panic (or SIGPIPE) instead of
  // failing the pending requests over a dead rail.
  auto [da, db] = drv::TcpDriver::create_pair();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: hold the peer endpoint open briefly, then vanish without any
    // shutdown handshake. _exit skips destructors — the hard-crash case.
    usleep(30 * 1000);
    _exit(0);
  }
  // Parent: drop its copy of the peer endpoint so the child's _exit is the
  // event that delivers EOF on the survivor's sockets.
  db.reset();

  drv::RealWorld world;
  world.attach(da.get());
  auto clock = [&world] { return world.now(); };
  auto defer = [&world](std::function<void()> fn) { world.defer(std::move(fn)); };
  auto progress = [&world](const std::function<bool()>& pred) {
    world.progress_until(pred);
  };
  auto timer = [&world](sim::TimeNs delay, std::function<void()> fn) {
    world.schedule_after(delay, std::move(fn));
  };
  Session a("A", clock, defer, progress, timer);
  strat::StrategyConfig scfg;
  scfg.reliability.ack_enabled = true;
  const GateId gate = a.connect({da.get()}, "single_rail", scfg);

  const auto payload = random_bytes(4096, 6);
  auto send = a.isend(gate, 1, payload);
  // The peer never acks and then dies: the request must settle as failed
  // (rail dead -> gate failed), not hang and not crash the process.
  a.wait(send);
  EXPECT_TRUE(send->failed());
  EXPECT_FALSE(send->completed());
  EXPECT_TRUE(a.scheduler().gate(gate).failed());
  for (auto& rail : a.scheduler().gate(gate).rails()) {
    EXPECT_EQ(rail.guard.state(), RailState::kDead);
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
}

TEST(TcpDriver, TrackIdleContract) {
  auto [da, db] = drv::TcpDriver::create_pair();
  db->set_deliver([](drv::Track, std::span<const std::byte>) {});
  da->set_deliver([](drv::Track, std::span<const std::byte>) {});
  EXPECT_TRUE(da->send_idle(drv::Track::kSmall));

  bool sent = false;
  nmad::proto::BufferPool pool;
  const std::vector<std::byte> payload(4, std::byte{1});
  drv::SendDesc desc{drv::Track::kSmall,
                     nmad::proto::encode_data_packet_view(
                         pool, nmad::proto::SegHeader{0, 0, 0, 4, 4}, payload),
                     0.0};
  da->post_send(std::move(desc), [&] { sent = true; });
  EXPECT_FALSE(da->send_idle(drv::Track::kSmall));
  EXPECT_TRUE(da->send_idle(drv::Track::kLarge));
  while (!sent) da->progress();
  EXPECT_TRUE(da->send_idle(drv::Track::kSmall));
}

}  // namespace
