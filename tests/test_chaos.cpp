// Chaos property tests: the receive path (matching + rendezvous +
// reassembly) must be fully order-independent, so scrambling delivery
// order within each rail must never change what the application observes.
//
// With the fault injector armed (drop / duplicate / corrupt) and
// ack/retransmit enabled, the guarantee strengthens to the reliability
// contract: every seeded run either completes with byte-identical payloads
// or reports a dead rail — never a hang, never wrong data. The failover
// tests hard-kill one rail mid-rendezvous and assert the transfer finishes
// on the survivor with the dead rail's un-acked frames requeued.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/platform.hpp"
#include "core/session.hpp"
#include "drv/chaos_driver.hpp"
#include "drv/sim_driver.hpp"
#include "drv/sim_world.hpp"
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

/// Paper platform with every rail endpoint wrapped in a ChaosDriver.
struct ChaosFixture {
  drv::SimWorld world;
  // Layout: wrappers[2*link + 0] is A's endpoint, [2*link + 1] is B's.
  std::vector<std::unique_ptr<drv::ChaosDriver>> wrappers;
  std::unique_ptr<Session> a, b;
  GateId gate_ab = 0, gate_ba = 0;

  ChaosFixture(std::uint64_t seed, const char* strategy,
               drv::ChaosConfig cfg, strat::StrategyConfig scfg = {}) {
    netmodel::HostProfile host;
    const auto na = world.add_node(host);
    const auto nb = world.add_node(host);

    // Flap schedules run on virtual time; bind the world clock unless the
    // test supplied its own time source.
    if (cfg.flap.enabled && cfg.clock == nullptr) {
      cfg.clock = [this] { return world.now(); };
    }

    std::vector<drv::Driver*> rails_a, rails_b;
    for (const auto& nic : {netmodel::myri10g(), netmodel::quadrics_qm500()}) {
      auto [ea, eb] = world.add_link(na, nb, nic);
      wrappers.push_back(std::make_unique<drv::ChaosDriver>(*ea, seed++, cfg));
      rails_a.push_back(wrappers.back().get());
      wrappers.push_back(std::make_unique<drv::ChaosDriver>(*eb, seed++, cfg));
      rails_b.push_back(wrappers.back().get());
    }

    auto clock = [this] { return world.now(); };
    auto defer = [this](std::function<void()> fn) {
      world.engine().schedule(0, std::move(fn));
    };
    auto timer = [this](sim::TimeNs delay, std::function<void()> fn) {
      world.engine().schedule(delay, std::move(fn));
    };
    // Progress: run the engine; when it drains with the predicate unmet,
    // flush the chaos buffers (packets held below the window) and retry.
    auto progress = [this](const std::function<bool()>& pred) {
      for (int round = 0; round < 1000; ++round) {
        if (world.engine().run_until(pred)) return;
        bool flushed = false;
        for (auto& w : wrappers) {
          flushed |= w->buffered() > 0;
          w->flush();
        }
        if (!flushed && world.engine().idle()) return;  // genuine deadlock
      }
    };
    a = std::make_unique<Session>("A", clock, defer, progress, timer);
    b = std::make_unique<Session>("B", clock, defer, progress, timer);
    gate_ab = a->connect(rails_a, strategy, scfg);
    gate_ba = b->connect(rails_b, strategy, scfg);
  }

  /// Order-scrambling only (the legacy decorator behavior).
  ChaosFixture(std::uint64_t seed, const char* strategy, std::size_t window)
      : ChaosFixture(seed, strategy,
                     drv::ChaosConfig::uniform(drv::FaultProfile{}, window)) {}

  /// Switch both sessions to threaded progression: one progress thread for
  /// the world, keyed by the world mutex. The idle hook replaces the serial
  /// progress callback's chaos-buffer flush — it runs on the progress
  /// thread under the world mutex whenever the engine drains, releasing
  /// packets the window is holding back so the run cannot stall below the
  /// window.
  void start_threaded() {
    auto idle = [this] {
      for (auto& w : wrappers) w->flush();
    };
    a->start_threaded(world.progress_mutex(), &world.engine(), 1, idle);
    b->start_threaded(world.progress_mutex(), &world.engine(), 1, idle);
  }

  ~ChaosFixture() {
    // BOTH sessions must detach before either session dies: engine events
    // cross sessions, so the world thread, still serving one, could step a
    // callback into the other's freed scheduler. No-op in serial.
    a->stop_threaded();
    b->stop_threaded();
    // Drain the chaos buffers while the sessions (the deliver upcall
    // targets) are still alive; dead guards drop the frames harmlessly.
    // The wrappers' own destructor flush must find nothing left.
    for (auto& w : wrappers) w->flush();
  }

  [[nodiscard]] drv::ChaosDriver& side_a(std::size_t link) {
    return *wrappers[2 * link];
  }
  [[nodiscard]] drv::ChaosDriver& side_b(std::size_t link) {
    return *wrappers[2 * link + 1];
  }
  /// Hard-kill both endpoints of one physical link.
  void kill_link(std::size_t link) {
    side_a(link).kill();
    side_b(link).kill();
  }
};

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, ScrambledDeliveryStillByteExact) {
  ChaosFixture f(GetParam(), "aggreg_greedy", /*window=*/3);
  util::Xoshiro256 rng(GetParam() * 7 + 1);

  constexpr int kMessages = 30;
  std::vector<std::vector<std::byte>> payloads, sinks;
  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  for (int i = 0; i < kMessages; ++i) {
    payloads.push_back(random_bytes(rng.next_below(120000), GetParam() + i));
    sinks.emplace_back(payloads.back().size());
  }
  for (int i = 0; i < kMessages; ++i) {
    recvs.push_back(f.b->irecv(f.gate_ba, static_cast<proto::Tag>(i % 4),
                               sinks[i]));
  }
  for (int i = 0; i < kMessages; ++i) {
    sends.push_back(f.a->isend(f.gate_ab, static_cast<proto::Tag>(i % 4),
                               payloads[i]));
  }
  f.a->wait_all(sends, recvs);
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(sinks[i], payloads[i]) << "message " << i;
    EXPECT_EQ(recvs[i]->received_len(), payloads[i].size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u),
                         [](const auto& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

TEST(Chaos, WindowOneIsTransparent) {
  // window=1 releases every packet immediately: behavior must be identical
  // to the unwrapped platform, including virtual timing.
  ChaosFixture f(42, "aggreg_greedy", /*window=*/1);
  const auto payload = random_bytes(100000, 5);
  std::vector<std::byte> sink(100000);
  auto recv = f.b->irecv(f.gate_ba, 0, sink);
  auto send = f.a->isend(f.gate_ab, 0, payload);
  f.b->wait(recv);
  f.a->wait(send);
  EXPECT_EQ(sink, payload);
  for (auto& w : f.wrappers) EXPECT_EQ(w->buffered(), 0u);
}

// --------------------------------------------------------------------------
// Fault-injection soak: the ISSUE's acceptance profile (drop=1%, dup=1%,
// corrupt=0.5%) over three seeds. Every run must either deliver
// byte-identical payloads or fail the requests of a gate whose rails all
// died — never hang, never hand over wrong bytes.
// --------------------------------------------------------------------------

class ChaosFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosFaultSoak, LossDupCorruptHealOrReportDeadRail) {
  drv::FaultProfile profile;
  profile.drop = 0.01;
  profile.duplicate = 0.01;
  profile.corrupt = 0.005;
  strat::StrategyConfig scfg;
  scfg.reliability.ack_enabled = true;
  ChaosFixture f(GetParam(), "aggreg_greedy",
                 drv::ChaosConfig::uniform(profile, /*window=*/3), scfg);
  util::Xoshiro256 rng(GetParam() * 13 + 5);

  auto injected = [&f] {
    std::uint64_t n = 0;
    for (auto& w : f.wrappers) {
      n += w->stats().drops + w->stats().duplicates + w->stats().corruptions;
    }
    return n;
  };

  // One wave of mixed-size traffic, fully validated. Waves repeat (bounded)
  // until the profile has demonstrably fired — a single wave can dodge a
  // ~2.5%-per-frame profile on an unlucky seed, which would make the test
  // vacuous.
  constexpr int kMessages = 24;
  constexpr int kMaxWaves = 8;
  int wave = 0;
  for (; wave < kMaxWaves; ++wave) {
    std::vector<std::vector<std::byte>> payloads, sinks;
    std::vector<RecvHandle> recvs;
    std::vector<SendHandle> sends;
    for (int i = 0; i < kMessages; ++i) {
      payloads.push_back(
          random_bytes(1 + rng.next_below(90000), GetParam() + i + wave * 100));
      sinks.emplace_back(payloads.back().size(), std::byte{0});
    }
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(f.b->irecv(f.gate_ba, static_cast<proto::Tag>(i % 3),
                                 sinks[i]));
    }
    for (int i = 0; i < kMessages; ++i) {
      sends.push_back(f.a->isend(f.gate_ab, static_cast<proto::Tag>(i % 3),
                                 payloads[i]));
    }
    // wait_all panics if the run hangs (progress exhausted with requests
    // neither completed nor failed) — the "never hang" half of the contract.
    f.a->wait_all(sends, recvs);

    for (int i = 0; i < kMessages; ++i) {
      if (recvs[i]->completed()) {
        EXPECT_EQ(sinks[i], payloads[i]) << "message " << i << " corrupted";
        EXPECT_EQ(recvs[i]->received_len(), payloads[i].size());
      } else {
        // A request may only fail when its whole gate lost every rail.
        EXPECT_TRUE(recvs[i]->failed());
        EXPECT_TRUE(f.b->scheduler().gate(f.gate_ba).failed());
      }
      if (!sends[i]->completed()) {
        EXPECT_TRUE(sends[i]->failed());
        EXPECT_TRUE(f.a->scheduler().gate(f.gate_ab).failed());
      }
    }
    if (injected() > 0 || f.a->scheduler().gate(f.gate_ab).failed()) break;
  }
  EXPECT_GT(injected(), 0u)
      << "fault profile injected nothing across " << wave + 1 << " waves";

  // Every injected fault that mattered was healed by the reliability layer:
  // with acks on, drops/corruptions surface as retransmits and CRC drops.
  if (obs::kMetricsEnabled && !f.a->scheduler().gate(f.gate_ab).failed()) {
    std::uint64_t retransmits = 0;
    for (auto* s : {f.a.get(), f.b.get()}) {
      auto& gate = s->scheduler().gate(0);
      for (auto& rail : gate.rails()) {
        retransmits += rail.guard.metrics.retransmits.value();
      }
    }
    EXPECT_GT(retransmits, 0u) << "faults fired but nothing was retransmitted";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFaultSoak,
                         ::testing::Values(11u, 23u, 37u),
                         [](const auto& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

// --------------------------------------------------------------------------
// Threaded chaos soak: the same fault profile with the world's progress
// thread driving the engine. The contract is unchanged — every wave
// either delivers byte-identical payloads or reports a dead gate, never a
// hang (the progression engine's stall watchdog panics a genuine deadlock,
// and a wall-clock bound catches pathological slowdowns) and never wrong
// bytes. All non-atomic chaos/gate state is read under the world progress
// mutex, which serializes against the live progress thread.
// --------------------------------------------------------------------------

class ThreadedChaosFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreadedChaosFaultSoak, LossDupCorruptUnderProgressThreads) {
  const auto wall_start = std::chrono::steady_clock::now();
  drv::FaultProfile profile;
  profile.drop = 0.01;
  profile.duplicate = 0.01;
  profile.corrupt = 0.005;
  strat::StrategyConfig scfg;
  scfg.reliability.ack_enabled = true;
  ChaosFixture f(GetParam(), "aggreg_greedy",
                 drv::ChaosConfig::uniform(profile, /*window=*/3), scfg);
  f.start_threaded();
  util::Xoshiro256 rng(GetParam() * 29 + 3);

  auto injected = [&f] {
    // ChaosDriver stats are plain counters mutated on the progress threads
    // (all sends and deliveries run under the world mutex there).
    std::lock_guard<std::mutex> lock(f.world.progress_mutex());
    std::uint64_t n = 0;
    for (auto& w : f.wrappers) {
      n += w->stats().drops + w->stats().duplicates + w->stats().corruptions;
    }
    return n;
  };
  auto gate_failed = [&f](Session& s, GateId g) {
    std::lock_guard<std::mutex> lock(f.world.progress_mutex());
    return s.scheduler().gate(g).failed();
  };

  constexpr int kMessages = 24;
  constexpr int kMaxWaves = 8;
  int wave = 0;
  for (; wave < kMaxWaves; ++wave) {
    std::vector<std::vector<std::byte>> payloads, sinks;
    std::vector<RecvHandle> recvs;
    std::vector<SendHandle> sends;
    for (int i = 0; i < kMessages; ++i) {
      payloads.push_back(
          random_bytes(1 + rng.next_below(90000), GetParam() + i + wave * 100));
      sinks.emplace_back(payloads.back().size(), std::byte{0});
    }
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(f.b->irecv(f.gate_ba, static_cast<proto::Tag>(i % 3),
                                 sinks[i]));
    }
    for (int i = 0; i < kMessages; ++i) {
      sends.push_back(f.a->isend(f.gate_ab, static_cast<proto::Tag>(i % 3),
                                 payloads[i]));
    }
    // In threaded mode wait_all spins on the (atomic) settled flags while
    // the progress threads run; its stall watchdog panics a genuine hang.
    f.a->wait_all(sends, recvs);

    for (int i = 0; i < kMessages; ++i) {
      if (recvs[i]->completed()) {
        EXPECT_EQ(sinks[i], payloads[i]) << "message " << i << " corrupted";
        EXPECT_EQ(recvs[i]->received_len(), payloads[i].size());
      } else {
        // A request may only fail when its whole gate lost every rail.
        EXPECT_TRUE(recvs[i]->failed());
        EXPECT_TRUE(gate_failed(*f.b, f.gate_ba));
      }
      if (!sends[i]->completed()) {
        EXPECT_TRUE(sends[i]->failed());
        EXPECT_TRUE(gate_failed(*f.a, f.gate_ab));
      }
    }
    if (injected() > 0 || gate_failed(*f.a, f.gate_ab)) break;
  }
  EXPECT_GT(injected(), 0u)
      << "fault profile injected nothing across " << wave + 1 << " waves";

  if (obs::kMetricsEnabled && !gate_failed(*f.a, f.gate_ab)) {
    // RailGuard metrics are atomic counters — safe to read lock-free.
    std::uint64_t retransmits = 0;
    for (auto* s : {f.a.get(), f.b.get()}) {
      auto& gate = s->scheduler().gate(0);
      for (auto& rail : gate.rails()) {
        retransmits += rail.guard.metrics.retransmits.value();
      }
    }
    EXPECT_GT(retransmits, 0u) << "faults fired but nothing was retransmitted";
  }

  // Wall-clock watchdog: this soak simulates ~milliseconds of virtual
  // traffic; anything near this bound means live-lock, not load.
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - wall_start);
  EXPECT_LT(elapsed.count(), 120) << "threaded chaos soak wall-clock blowout";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedChaosFaultSoak,
                         ::testing::Values(11u, 23u, 37u),
                         [](const auto& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

// --------------------------------------------------------------------------
// Live failover: hard-kill one rail mid-rendezvous.
// --------------------------------------------------------------------------

TEST(ChaosFailover, RailKillMidRendezvousCompletesOnSurvivor) {
  strat::StrategyConfig scfg;
  scfg.reliability.ack_enabled = true;
  // Transparent wrappers (window=1, no faults): the only injected event is
  // the kill, so the test isolates the failover machinery.
  ChaosFixture f(7, "split_balance",
                 drv::ChaosConfig::uniform(drv::FaultProfile{}, 1), scfg);

  const auto payload = random_bytes(2 << 20, 9);
  std::vector<std::byte> sink(payload.size(), std::byte{0});
  auto recv = f.b->irecv(f.gate_ba, 4, sink);
  auto send = f.a->isend(f.gate_ab, 4, payload);

  // Run until the rendezvous is granted and BOTH rails carry un-acked
  // chunks — the split strategy stripes the bulk across them — then cut
  // link 0 (both endpoints, like a yanked cable).
  auto& gate_a = f.a->scheduler().gate(f.gate_ab);
  const bool armed = f.world.engine().run_until([&] {
    return gate_a.rail(0).guard.unacked_count() > 0 &&
           gate_a.rail(1).guard.unacked_count() > 0;
  });
  ASSERT_TRUE(armed) << "transfer never put chunks in flight on both rails";
  ASSERT_FALSE(send->done());
  f.kill_link(0);

  f.a->wait_all(std::span(&send, 1), std::span(&recv, 1));
  ASSERT_TRUE(send->completed());
  ASSERT_TRUE(recv->completed());
  EXPECT_EQ(sink, payload);

  // The killed rail was detected dead via retransmission timeouts and its
  // retained frames were surrendered for repost on the survivor.
  EXPECT_EQ(gate_a.rail(0).guard.state(), RailState::kDead);
  EXPECT_TRUE(gate_a.rail(1).alive());
  EXPECT_EQ(gate_a.rail(0).guard.unacked_count(), 0u);
  if (obs::kMetricsEnabled) {
    const auto& m = gate_a.rail(0).guard.metrics;
    EXPECT_GT(m.timeouts.value(), 0u);
    EXPECT_GT(m.requeued_packets.value(), 0u);
    EXPECT_GT(m.requeued_bytes.value(), 0u);
    EXPECT_EQ(m.state.value(), 2);  // RailState::kDead, as the CI gate sees it
    EXPECT_GT(m.state_transitions.value(), 0u);
  }
  EXPECT_FALSE(gate_a.failed());

  // The failed-over gate keeps working: a follow-up message rides the
  // survivor end to end.
  const auto second = random_bytes(60000, 10);
  std::vector<std::byte> sink2(second.size());
  auto recv2 = f.b->irecv(f.gate_ba, 5, sink2);
  auto send2 = f.a->isend(f.gate_ab, 5, second);
  f.a->wait_all(std::span(&send2, 1), std::span(&recv2, 1));
  EXPECT_TRUE(send2->completed());
  EXPECT_EQ(sink2, second);
}

TEST(ChaosFailover, AllRailsDeadFailsRequestsInsteadOfHanging) {
  strat::StrategyConfig scfg;
  scfg.reliability.ack_enabled = true;
  ChaosFixture f(21, "split_balance",
                 drv::ChaosConfig::uniform(drv::FaultProfile{}, 1), scfg);

  const auto payload = random_bytes(2 << 20, 11);
  std::vector<std::byte> sink(payload.size());
  auto recv = f.b->irecv(f.gate_ba, 0, sink);
  auto send = f.a->isend(f.gate_ab, 0, payload);

  auto& gate_a = f.a->scheduler().gate(f.gate_ab);
  const bool armed = f.world.engine().run_until([&] {
    return gate_a.rail(0).guard.unacked_count() > 0 &&
           gate_a.rail(1).guard.unacked_count() > 0;
  });
  ASSERT_TRUE(armed);
  f.kill_link(0);
  f.kill_link(1);

  // wait() returns when the request *settles* — and with every rail dead,
  // settling means failing, not completing.
  f.a->wait(send);
  EXPECT_TRUE(send->failed());
  EXPECT_FALSE(send->completed());
  EXPECT_TRUE(gate_a.failed());
  EXPECT_EQ(gate_a.rail(0).guard.state(), RailState::kDead);
  EXPECT_EQ(gate_a.rail(1).guard.state(), RailState::kDead);
  EXPECT_FALSE(recv->completed());

  // Submissions on a failed gate settle immediately as failed.
  auto late = f.a->isend(f.gate_ab, 1, payload);
  EXPECT_TRUE(late->failed());
  auto late_recv = f.a->irecv(f.gate_ab, 1, sink);
  EXPECT_TRUE(late_recv->failed());
}

// --------------------------------------------------------------------------
// Rail resurrection: keepalive probing detects a dead *idle* rail (zero
// application traffic), the reconnect machinery revives the endpoint, and
// the epoch handshake fences every frame of the previous incarnation. The
// end-to-end contract: the rail re-enters the stripe set and carries
// byte-identical traffic under the new epoch.
// --------------------------------------------------------------------------

strat::StrategyConfig resurrection_scfg() {
  strat::StrategyConfig scfg;
  scfg.reliability.ack_enabled = true;
  scfg.reliability.keepalive_enabled = true;
  scfg.reliability.reconnect_enabled = true;
  return scfg;
}

TEST(ChaosResurrection, IdleRailKilledIsDetectedRevivedAndRejoinsTheStripe) {
  ChaosFixture f(51, "split_balance",
                 drv::ChaosConfig::uniform(drv::FaultProfile{}, 1),
                 resurrection_scfg());

  // Warm-up: a striped transfer proves both rails carry traffic.
  const auto warm = random_bytes(1 << 20, 1);
  std::vector<std::byte> sink(warm.size());
  auto recv = f.b->irecv(f.gate_ba, 0, sink);
  auto send = f.a->isend(f.gate_ab, 0, warm);
  f.a->wait_all(std::span(&send, 1), std::span(&recv, 1));
  ASSERT_EQ(sink, warm);

  auto& gate_a = f.a->scheduler().gate(f.gate_ab);
  auto& gate_b = f.b->scheduler().gate(f.gate_ba);
  // Drain every trailing ack: the kill must land on a *fully idle* rail so
  // that only the keepalive machinery — no retransmit timer — can notice.
  const bool drained = f.world.engine().run_until([&] {
    for (auto* g : {&gate_a, &gate_b}) {
      for (auto& r : g->rails()) {
        if (r.guard.unacked_count() != 0) return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(drained);
  ASSERT_TRUE(gate_a.rail(0).guard.healthy());
  ASSERT_EQ(gate_a.rail(0).guard.epoch(), 1u);

  // Asymmetric cut: B's endpoint of link 0 goes dark (discards every
  // receive, refuses every send). A's probes go unanswered; B's guard
  // cannot even emit a probe — both converge to dead on keepalive alone.
  f.side_b(0).kill();
  const bool resurrected = f.world.engine().run_until([&] {
    return gate_a.rail(0).guard.epoch() >= 2 &&
           gate_b.rail(0).guard.epoch() >= 2 &&
           gate_a.rail(0).guard.healthy() && gate_b.rail(0).guard.healthy();
  });
  ASSERT_TRUE(resurrected) << "idle rail never came back";
  EXPECT_EQ(gate_a.rail(0).guard.epoch(), gate_b.rail(0).guard.epoch());
  EXPECT_GE(f.side_b(0).stats().revives, 1u);  // the kill switch was cleared
  if (obs::kMetricsEnabled) {
    // A actually probed the silent rail, and both ends count a reconnect.
    EXPECT_GE(gate_a.rail(0).guard.metrics.probes_sent.value(), 1u);
    EXPECT_GE(gate_a.rail(0).guard.metrics.reconnects.value(), 1u);
    EXPECT_GE(gate_b.rail(0).guard.metrics.reconnects.value(), 1u);
  }
  EXPECT_FALSE(gate_a.failed());

  // The resurrected rail re-enters the stripe set: a second bulk transfer
  // puts chunks in flight on rail 0 again and delivers byte-identical.
  const auto after = random_bytes(1 << 20, 2);
  std::vector<std::byte> sink2(after.size());
  auto recv2 = f.b->irecv(f.gate_ba, 1, sink2);
  auto send2 = f.a->isend(f.gate_ab, 1, after);
  const bool striped = f.world.engine().run_until(
      [&] { return gate_a.rail(0).guard.unacked_count() > 0; });
  EXPECT_TRUE(striped) << "revived rail carried no data";
  f.a->wait_all(std::span(&send2, 1), std::span(&recv2, 1));
  ASSERT_TRUE(send2->completed());
  ASSERT_TRUE(recv2->completed());
  EXPECT_EQ(sink2, after);
  EXPECT_TRUE(gate_a.rail(0).guard.healthy());
  EXPECT_TRUE(gate_b.rail(0).guard.healthy());
  if (obs::kMetricsEnabled) {
    // Stale frames of epoch 1 may have been *fenced* (dropped), but byte-
    // identical delivery plus zero CRC/malformed damage means none was
    // ever accepted into the new incarnation.
    EXPECT_EQ(gate_b.rail(0).guard.metrics.crc_drops.value(), 0u);
    EXPECT_EQ(gate_b.rail(0).guard.metrics.malformed_drops.value(), 0u);
  }
}

TEST(ChaosResurrection, IdleRailResurrectionUnderProgressThreads) {
  ChaosFixture f(52, "split_balance",
                 drv::ChaosConfig::uniform(drv::FaultProfile{}, 1),
                 resurrection_scfg());
  f.start_threaded();

  // Poll a predicate under the world mutex while the progress threads run
  // the engine (the threaded stand-in for run_until).
  auto poll_until = [&](const std::function<bool()>& pred) {
    for (int i = 0; i < 20000; ++i) {
      {
        std::lock_guard<std::mutex> lock(f.world.progress_mutex());
        if (pred()) return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  };

  const auto warm = random_bytes(1 << 20, 3);
  std::vector<std::byte> sink(warm.size());
  auto recv = f.b->irecv(f.gate_ba, 0, sink);
  auto send = f.a->isend(f.gate_ab, 0, warm);
  f.a->wait_all(std::span(&send, 1), std::span(&recv, 1));
  ASSERT_EQ(sink, warm);

  auto& gate_a = f.a->scheduler().gate(f.gate_ab);
  auto& gate_b = f.b->scheduler().gate(f.gate_ba);
  ASSERT_TRUE(poll_until([&] {
    for (auto* g : {&gate_a, &gate_b}) {
      for (auto& r : g->rails()) {
        if (r.guard.unacked_count() != 0) return false;
      }
    }
    return true;
  }));
  {
    std::lock_guard<std::mutex> lock(f.world.progress_mutex());
    f.side_b(0).kill();
  }
  ASSERT_TRUE(poll_until([&] {
    return gate_a.rail(0).guard.epoch() >= 2 &&
           gate_b.rail(0).guard.epoch() >= 2 &&
           gate_a.rail(0).guard.healthy() && gate_b.rail(0).guard.healthy();
  })) << "idle rail never came back under progress threads";

  const auto after = random_bytes(1 << 20, 4);
  std::vector<std::byte> sink2(after.size());
  auto recv2 = f.b->irecv(f.gate_ba, 1, sink2);
  auto send2 = f.a->isend(f.gate_ab, 1, after);
  f.a->wait_all(std::span(&send2, 1), std::span(&recv2, 1));
  ASSERT_TRUE(send2->completed());
  EXPECT_EQ(sink2, after);
  {
    std::lock_guard<std::mutex> lock(f.world.progress_mutex());
    EXPECT_EQ(gate_a.rail(0).guard.epoch(), gate_b.rail(0).guard.epoch());
    EXPECT_TRUE(gate_a.rail(0).guard.healthy());
    if (obs::kMetricsEnabled) {
      EXPECT_GE(gate_a.rail(0).guard.metrics.reconnects.value(), 1u);
    }
  }
}

// --------------------------------------------------------------------------
// Total outage then recovery: when EVERY rail dies, in-flight requests fail
// (the established contract) — and stay failed after the rails come back.
// Only *new* submissions ride the resurrected gate. No zombie requests.
// --------------------------------------------------------------------------

class TotalOutageRecovery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TotalOutageRecovery, FailedRequestsStayFailedNewOnesSucceed) {
  strat::StrategyConfig scfg = resurrection_scfg();
  // The outage must be decisive: every rail dies (and the gate fails its
  // requests) before the first reconnect attempt can resurrect anything.
  scfg.reliability.reconnect_backoff_ns = 50'000'000;
  ChaosFixture f(GetParam(), "split_balance",
                 drv::ChaosConfig::uniform(drv::FaultProfile{}, 1), scfg);

  const auto payload = random_bytes(2 << 20, GetParam());
  std::vector<std::byte> sink(payload.size());
  auto recv = f.b->irecv(f.gate_ba, 0, sink);
  auto send = f.a->isend(f.gate_ab, 0, payload);

  auto& gate_a = f.a->scheduler().gate(f.gate_ab);
  auto& gate_b = f.b->scheduler().gate(f.gate_ba);
  const bool armed = f.world.engine().run_until([&] {
    return gate_a.rail(0).guard.unacked_count() > 0 &&
           gate_a.rail(1).guard.unacked_count() > 0;
  });
  ASSERT_TRUE(armed);
  f.kill_link(0);
  f.kill_link(1);

  // Every rail dead: the in-flight requests settle as failed.
  f.a->wait(send);
  ASSERT_TRUE(send->failed());
  EXPECT_TRUE(gate_a.failed());
  f.b->wait(recv);
  ASSERT_TRUE(recv->failed());

  // The reconnect machinery revives every rail and un-fails the gates.
  const bool recovered = f.world.engine().run_until([&] {
    if (gate_a.failed() || gate_b.failed()) return false;
    for (auto* g : {&gate_a, &gate_b}) {
      for (auto& r : g->rails()) {
        if (!r.guard.healthy() || r.guard.epoch() < 2) return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(recovered) << "gates never recovered from the total outage";

  // No zombie resurrection: the failed requests are settled history.
  EXPECT_TRUE(send->failed());
  EXPECT_FALSE(send->completed());
  EXPECT_TRUE(recv->failed());
  EXPECT_FALSE(recv->completed());

  // New submissions (fresh tag) ride the resurrected gate end to end.
  const auto fresh = random_bytes(1 << 20, GetParam() + 1000);
  std::vector<std::byte> sink2(fresh.size());
  auto recv2 = f.b->irecv(f.gate_ba, 9, sink2);
  auto send2 = f.a->isend(f.gate_ab, 9, fresh);
  f.a->wait_all(std::span(&send2, 1), std::span(&recv2, 1));
  ASSERT_TRUE(send2->completed());
  ASSERT_TRUE(recv2->completed());
  EXPECT_EQ(sink2, fresh);
  if (obs::kMetricsEnabled) {
    for (auto& r : gate_a.rails()) {
      EXPECT_GE(r.guard.metrics.reconnects.value(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TotalOutageRecovery,
                         ::testing::Values(5u, 19u, 63u),
                         [](const auto& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

class ThreadedTotalOutageRecovery
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreadedTotalOutageRecovery, FailedRequestsStayFailedNewOnesSucceed) {
  strat::StrategyConfig scfg = resurrection_scfg();
  ChaosFixture f(GetParam(), "split_balance",
                 drv::ChaosConfig::uniform(drv::FaultProfile{}, 1), scfg);
  f.start_threaded();

  auto poll_until = [&](const std::function<bool()>& pred) {
    for (int i = 0; i < 20000; ++i) {
      {
        std::lock_guard<std::mutex> lock(f.world.progress_mutex());
        if (pred()) return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  };

  // Latch revival shut, then cut every link BEFORE submitting. Under
  // free-running progress threads the kill/detect/reconnect cycle runs at
  // sim speed, so without the latch the rails can resurrect before the
  // submissions even land; with it, the outage provably outlives the
  // requests (the reconnect machinery keeps backing off against a revive
  // that cannot succeed) and "submitted during a total outage" is exact.
  auto& gate_a = f.a->scheduler().gate(f.gate_ab);
  auto& gate_b = f.b->scheduler().gate(f.gate_ba);
  {
    std::lock_guard<std::mutex> lock(f.world.progress_mutex());
    for (auto& w : f.wrappers) w->set_revivable(false);
    f.kill_link(0);
    f.kill_link(1);
  }
  const auto payload = random_bytes(2 << 20, GetParam());
  std::vector<std::byte> sink(payload.size());
  auto recv = f.b->irecv(f.gate_ba, 0, sink);
  auto send = f.a->isend(f.gate_ab, 0, payload);

  f.a->wait(send);
  ASSERT_TRUE(send->failed());
  f.b->wait(recv);
  ASSERT_TRUE(recv->failed());

  // Release the latch: the next backoff tick revives the ports, and the
  // epoch handshake re-arms both gates.
  {
    std::lock_guard<std::mutex> lock(f.world.progress_mutex());
    for (auto& w : f.wrappers) w->set_revivable(true);
  }

  ASSERT_TRUE(poll_until([&] {
    if (gate_a.failed() || gate_b.failed()) return false;
    for (auto* g : {&gate_a, &gate_b}) {
      for (auto& r : g->rails()) {
        if (!r.guard.healthy() || r.guard.epoch() < 2) return false;
      }
    }
    return true;
  })) << "gates never recovered from the total outage";

  EXPECT_TRUE(send->failed());
  EXPECT_FALSE(send->completed());

  const auto fresh = random_bytes(1 << 20, GetParam() + 1000);
  std::vector<std::byte> sink2(fresh.size());
  auto recv2 = f.b->irecv(f.gate_ba, 9, sink2);
  auto send2 = f.a->isend(f.gate_ab, 9, fresh);
  f.a->wait_all(std::span(&send2, 1), std::span(&recv2, 1));
  ASSERT_TRUE(send2->completed());
  EXPECT_EQ(sink2, fresh);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedTotalOutageRecovery,
                         ::testing::Values(5u, 63u),
                         [](const auto& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

// --------------------------------------------------------------------------
// Seeded flapping link: alternating up/down windows on one rail. The run
// must stay byte-exact through every flap, healing each down window either
// by retransmission or by a full death-and-resurrection cycle.
// --------------------------------------------------------------------------

class FlappingRail : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlappingRail, TrafficSurvivesLinkFlapByteExact) {
  drv::ChaosConfig cfg = drv::ChaosConfig::uniform(drv::FaultProfile{}, 1);
  cfg.flap.enabled = true;
  cfg.flap.up_ns = 8'000'000;
  cfg.flap.down_ns = 4'000'000;
  cfg.flap.start_ns = 1'000'000;
  strat::StrategyConfig scfg = resurrection_scfg();
  // Every wrapper flaps on its own seeded schedule (the fixture binds the
  // virtual clock): down windows overlap unpredictably, so each wave heals
  // through retransmission, failover, or a full resurrection cycle.
  ChaosFixture f(GetParam(), "split_balance", cfg, scfg);
  util::Xoshiro256 rng(GetParam() * 3 + 1);

  constexpr int kMessages = 16;
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<std::vector<std::byte>> payloads, sinks;
    std::vector<RecvHandle> recvs;
    std::vector<SendHandle> sends;
    for (int i = 0; i < kMessages; ++i) {
      payloads.push_back(
          random_bytes(1 + rng.next_below(200000), GetParam() + i + wave * 50));
      sinks.emplace_back(payloads.back().size(), std::byte{0});
    }
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(f.b->irecv(f.gate_ba, static_cast<proto::Tag>(i % 2),
                                 sinks[i]));
    }
    for (int i = 0; i < kMessages; ++i) {
      sends.push_back(f.a->isend(f.gate_ab, static_cast<proto::Tag>(i % 2),
                                 payloads[i]));
    }
    f.a->wait_all(sends, recvs);
    for (int i = 0; i < kMessages; ++i) {
      if (recvs[i]->completed()) {
        EXPECT_EQ(sinks[i], payloads[i]) << "message " << i << " corrupted";
      } else {
        EXPECT_TRUE(recvs[i]->failed());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlappingRail,
                         ::testing::Values(101u, 202u, 303u),
                         [](const auto& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

// --------------------------------------------------------------------------
// Destructor straggler flush (satellite: frames held past teardown used to
// reference freed pool blocks; now the destructor pushes them through the
// upcall and asserts the buffer drained — exercised under ASan in CI).
// --------------------------------------------------------------------------

/// Minimal inner driver whose deliveries the test triggers by hand.
struct StubDriver final : drv::Driver {
  drv::Capabilities caps_{};
  DeliverFn deliver;

  [[nodiscard]] const drv::Capabilities& caps() const noexcept override {
    return caps_;
  }
  [[nodiscard]] bool send_idle(drv::Track) const noexcept override {
    return true;
  }
  void post_send(drv::SendDesc, Callback on_sent) override {
    if (on_sent) on_sent();
  }
  void set_deliver(DeliverFn d) override { deliver = std::move(d); }
};

TEST(Chaos, DestructorFlushesBufferedStragglers) {
  StubDriver inner;
  std::vector<std::vector<std::byte>> got;
  std::vector<std::vector<std::byte>> frames;
  for (int i = 0; i < 3; ++i) {
    frames.push_back(random_bytes(64 + 32 * i, 100 + i));
  }
  {
    drv::ChaosDriver chaos(inner, /*seed=*/1, /*window=*/64);
    chaos.set_deliver([&](drv::Track, std::span<const std::byte> wire) {
      got.emplace_back(wire.begin(), wire.end());
    });
    for (const auto& fr : frames) inner.deliver(drv::Track::kSmall, fr);
    ASSERT_EQ(chaos.buffered(), 3u);  // held below the window...
  }  // ...and flushed (not leaked, not dangled) by the destructor.
  ASSERT_EQ(got.size(), 3u);
  std::sort(got.begin(), got.end());
  std::sort(frames.begin(), frames.end());
  EXPECT_EQ(got, frames);
}

TEST(Chaos, KillDiscardsBufferAndSwallowsSends) {
  StubDriver inner;
  std::size_t delivered = 0;
  drv::ChaosDriver chaos(inner, /*seed=*/2, /*window=*/64);
  chaos.set_deliver([&](drv::Track, std::span<const std::byte>) { ++delivered; });
  const auto frame = random_bytes(128, 3);
  inner.deliver(drv::Track::kSmall, frame);
  ASSERT_EQ(chaos.buffered(), 1u);

  chaos.kill();
  EXPECT_EQ(chaos.buffered(), 0u);  // frames died with the port
  EXPECT_FALSE(chaos.send_idle(drv::Track::kSmall));
  inner.deliver(drv::Track::kSmall, frame);  // post-kill rx: discarded
  EXPECT_EQ(chaos.buffered(), 0u);
  EXPECT_EQ(delivered, 0u);

  bool sent = false;
  chaos.post_send(drv::SendDesc{}, [&] { sent = true; });  // swallowed
  EXPECT_FALSE(sent);
  EXPECT_EQ(chaos.stats().swallowed_sends, 1u);
  EXPECT_EQ(chaos.stats().discarded_recvs, 2u);  // buffered + post-kill rx
}

}  // namespace
