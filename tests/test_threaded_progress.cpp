// Threaded progression engine: byte-identity against serial mode across
// the PIO/rendezvous boundary, completion ordering guarantees, mode
// resolution, parking, the stall watchdog and shutdown robustness. These
// tests pin kThreaded explicitly so they exercise the progress thread even
// when the suite runs without NMAD_PROGRESS_MODE set.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/platform.hpp"
#include "core/progress.hpp"
#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "util/panic.hpp"
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

PlatformConfig pin_threaded(PlatformConfig cfg) {
  cfg.progress_mode = ProgressMode::kThreaded;
  return cfg;
}

/// Threads of this process (Linux).
std::size_t thread_count_now() {
  namespace fs = std::filesystem;
  return static_cast<std::size_t>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator{}));
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One small A->B message, waited on both sides.
void exchange_one(TwoNodePlatform& p) {
  const std::vector<std::byte> payload(64, std::byte{7});
  std::vector<std::byte> sink(64);
  auto recv = p.b().irecv(p.gate_ba(), 0, sink);
  auto send = p.a().isend(p.gate_ab(), 0, payload);
  p.b().wait(recv);
  p.a().wait(send);
  ASSERT_EQ(sink, payload);
}

// --- mode resolution ---------------------------------------------------------

TEST(ProgressMode, ExplicitPinWinsOverEnvironment) {
  // Save the suite-level setting so running all tests in one process (no
  // ctest filter) stays hermetic.
  const char* saved = std::getenv("NMAD_PROGRESS_MODE");
  const std::string saved_value = saved != nullptr ? saved : "";

  ASSERT_EQ(setenv("NMAD_PROGRESS_MODE", "threaded", 1), 0);
  EXPECT_EQ(resolve_progress_mode(ProgressMode::kSerial), ProgressMode::kSerial);
  EXPECT_EQ(resolve_progress_mode(ProgressMode::kDefault),
            ProgressMode::kThreaded);
  ASSERT_EQ(setenv("NMAD_PROGRESS_MODE", "serial", 1), 0);
  EXPECT_EQ(resolve_progress_mode(ProgressMode::kDefault), ProgressMode::kSerial);
  EXPECT_EQ(resolve_progress_mode(ProgressMode::kThreaded),
            ProgressMode::kThreaded);
  ASSERT_EQ(unsetenv("NMAD_PROGRESS_MODE"), 0);
  EXPECT_EQ(resolve_progress_mode(ProgressMode::kDefault), ProgressMode::kSerial);

  if (saved != nullptr) {
    ASSERT_EQ(setenv("NMAD_PROGRESS_MODE", saved_value.c_str(), 1), 0);
  }
}

TEST(ProgressMode, PlatformReportsResolvedMode) {
  TwoNodePlatform serial(pin_serial(paper_platform("aggreg_greedy")));
  EXPECT_EQ(serial.progress_mode(), ProgressMode::kSerial);
  EXPECT_FALSE(serial.a().threaded());

  TwoNodePlatform threaded(pin_threaded(paper_platform("aggreg_greedy")));
  EXPECT_EQ(threaded.progress_mode(), ProgressMode::kThreaded);
  EXPECT_TRUE(threaded.a().threaded());
  EXPECT_TRUE(threaded.b().threaded());
  // One progress thread per world, shared by both sessions (and both
  // rails): detaching the last session joins exactly one thread.
  EXPECT_EQ(threaded.a().progress_engine()->thread_count(), 1u);
  const std::size_t threads_running = thread_count_now();
  threaded.a().stop_threaded();
  EXPECT_EQ(thread_count_now(), threads_running);
  threaded.b().stop_threaded();
  // A joined thread can linger in /proc for a moment while it is reaped.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (thread_count_now() + 1 > threads_running &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(threads_running - thread_count_now(), 1u);
}

// --- byte identity vs serial -------------------------------------------------

/// Run `rounds` of two-rail ping-pong at `size` bytes on `p`; returns the
/// bytes B received on the final round. Fails the test on any corruption.
std::vector<std::byte> pingpong(TwoNodePlatform& p, std::size_t size,
                                int rounds, std::uint64_t seed) {
  std::vector<std::byte> sink_b(size), sink_a(size);
  std::vector<std::byte> last;
  for (int r = 0; r < rounds; ++r) {
    const auto payload = random_bytes(size, seed + r);
    auto recv_b = p.b().irecv(p.gate_ba(), 0, sink_b);
    auto send_ab = p.a().isend(p.gate_ab(), 0, payload);
    p.b().wait(recv_b);
    p.a().wait(send_ab);
    EXPECT_EQ(recv_b->received_len(), size);
    EXPECT_EQ(sink_b, payload) << "A->B corrupted at size " << size;

    // Echo back the received bytes (not the original): corruption on
    // either leg is visible at A.
    auto recv_a = p.a().irecv(p.gate_ab(), 0, sink_a);
    auto send_ba = p.b().isend(p.gate_ba(), 0, sink_b);
    p.a().wait(recv_a);
    p.b().wait(send_ba);
    EXPECT_EQ(sink_a, payload) << "B->A corrupted at size " << size;
    last = sink_a;
  }
  return last;
}

class ThreadedPingPong : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadedPingPong, ByteIdenticalToSerial) {
  const std::size_t size = GetParam();
  TwoNodePlatform serial(pin_serial(paper_platform("aggreg_greedy")));
  TwoNodePlatform threaded(pin_threaded(paper_platform("aggreg_greedy")));
  const auto from_serial = pingpong(serial, size, 3, size * 7 + 1);
  const auto from_threaded = pingpong(threaded, size, 3, size * 7 + 1);
  EXPECT_EQ(from_serial, from_threaded);
}

// Sizes straddle the PIO threshold (8 KB eager boundary) and the
// rendezvous path: pure-eager, boundary, boundary+1, multi-chunk DMA.
INSTANTIATE_TEST_SUITE_P(EagerAndRendezvous, ThreadedPingPong,
                         ::testing::Values(std::size_t{1}, std::size_t{100},
                                           std::size_t{8192}, std::size_t{8193},
                                           std::size_t{64 * 1024},
                                           std::size_t{1 << 20}),
                         [](const auto& pinfo) {
                           return std::to_string(pinfo.param) + "b";
                         });

TEST(ThreadedProgress, MultiStrategyBurstBothDirections) {
  for (const char* strategy : {"single_rail", "greedy", "split_balance"}) {
    TwoNodePlatform p(pin_threaded(paper_platform(strategy)));
    constexpr int kMessages = 40;
    std::vector<std::vector<std::byte>> payloads, sinks;
    std::vector<SendHandle> sends;
    std::vector<RecvHandle> recvs;
    util::Xoshiro256 rng(0xabcd);
    for (int i = 0; i < kMessages; ++i) {
      const std::size_t size = 1 + rng.next_below(150000);
      payloads.push_back(random_bytes(size, i));
      sinks.emplace_back(size, std::byte{0});
    }
    for (int i = 0; i < kMessages; ++i) {
      const bool a_to_b = i % 2 == 0;
      recvs.push_back(a_to_b ? p.b().irecv(p.gate_ba(), 0, sinks[i])
                             : p.a().irecv(p.gate_ab(), 0, sinks[i]));
    }
    for (int i = 0; i < kMessages; ++i) {
      const bool a_to_b = i % 2 == 0;
      sends.push_back(a_to_b ? p.a().isend(p.gate_ab(), 0, payloads[i])
                             : p.b().isend(p.gate_ba(), 0, payloads[i]));
    }
    p.a().wait_all(sends, recvs);
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(sinks[i], payloads[i]) << strategy << " msg " << i;
    }
  }
}

// --- completion ordering -----------------------------------------------------

// Contract (see Scheduler::CompletionHook): single-rail
// traffic on one track settles strictly in seq order within a (gate, tag)
// stream — the eager track is FIFO and matching is sequential, so no
// stream may show a request completing before an earlier one.
TEST(ThreadedProgress, SingleRailEagerCompletionsInSeqOrder) {
  PlatformConfig cfg = pin_threaded(paper_platform("single_rail"));
  TwoNodePlatform p(std::move(cfg));
  constexpr int kPerTag = 30;
  constexpr int kTags = 3;
  constexpr std::size_t kSize = 512;  // eager-only: all on the PIO track

  std::vector<std::vector<std::byte>> payloads, sinks;
  std::vector<SendHandle> sends;
  std::vector<RecvHandle> recvs;
  for (int i = 0; i < kPerTag * kTags; ++i) {
    payloads.push_back(random_bytes(kSize, 1000 + i));
    sinks.emplace_back(kSize, std::byte{0});
  }
  for (int i = 0; i < kPerTag * kTags; ++i) {
    recvs.push_back(
        p.b().irecv(p.gate_ba(), static_cast<proto::Tag>(i % kTags), sinks[i]));
  }
  for (int i = 0; i < kPerTag * kTags; ++i) {
    sends.push_back(
        p.a().isend(p.gate_ab(), static_cast<proto::Tag>(i % kTags), payloads[i]));
  }
  p.b().wait_all(sends, recvs);
  for (int i = 0; i < kPerTag * kTags; ++i) {
    ASSERT_EQ(sinks[i], payloads[i]);
  }

  // Per (gate, tag) stream, in seq order: seqs are exactly 0..kPerTag-1
  // and completion times never go backwards, for sends and receives alike.
  for (int tag = 0; tag < kTags; ++tag) {
    sim::TimeNs last_send = -1;
    sim::TimeNs last_recv = -1;
    for (int k = 0; k < kPerTag; ++k) {
      const SendHandle& s = sends[k * kTags + tag];
      const RecvHandle& r = recvs[k * kTags + tag];
      ASSERT_TRUE(s->completed());
      ASSERT_TRUE(r->completed());
      EXPECT_EQ(s->seq(), static_cast<proto::MsgSeq>(k));
      EXPECT_EQ(r->seq(), static_cast<proto::MsgSeq>(k));
      EXPECT_GE(s->completion_time(), last_send)
          << "single-rail send stream completed out of seq order";
      EXPECT_GE(r->completion_time(), last_recv)
          << "single-rail recv stream completed out of seq order";
      last_send = s->completion_time();
      last_recv = r->completion_time();
    }
  }
  // Every settlement reached the completion hook exactly once. The hook
  // runs under the world lock, so taking it orders this read after the
  // last one.
  { auto quiesce = p.b().submission_burst(); }
  EXPECT_EQ(p.b().progress_engine()->completions(),
            static_cast<std::uint64_t>(kPerTag * kTags));
  EXPECT_EQ(p.a().progress_engine()->completions(),
            static_cast<std::uint64_t>(kPerTag * kTags));
}

// With multiple rails and mixed sizes, same-stream settlement MAY reorder
// (a small eager message overtakes an earlier rendezvous transfer) — but
// each stream must still settle every request exactly once, with seqs a
// complete, duplicate-free permutation, and matching stays byte-exact in
// post order.
TEST(ThreadedProgress, MultiRailCompletionsArePermutationPerStream) {
  TwoNodePlatform p(pin_threaded(paper_platform("aggreg_greedy")));
  constexpr int kPerTag = 30;
  constexpr int kTags = 3;

  std::vector<std::vector<std::byte>> payloads, sinks;
  std::vector<SendHandle> sends;
  std::vector<RecvHandle> recvs;
  util::Xoshiro256 rng(42);
  // Mixed sizes so eager and rendezvous completions interleave.
  for (int i = 0; i < kPerTag * kTags; ++i) {
    const std::size_t size = 1 + rng.next_below(60000);
    payloads.push_back(random_bytes(size, 1000 + i));
    sinks.emplace_back(size, std::byte{0});
  }
  for (int i = 0; i < kPerTag * kTags; ++i) {
    recvs.push_back(
        p.b().irecv(p.gate_ba(), static_cast<proto::Tag>(i % kTags), sinks[i]));
  }
  for (int i = 0; i < kPerTag * kTags; ++i) {
    sends.push_back(
        p.a().isend(p.gate_ab(), static_cast<proto::Tag>(i % kTags), payloads[i]));
  }
  p.b().wait_all(sends, recvs);
  for (int i = 0; i < kPerTag * kTags; ++i) {
    ASSERT_EQ(sinks[i], payloads[i]);
  }

  // Each stream's requests, ordered by completion time, carry every seq
  // exactly once.
  for (int tag = 0; tag < kTags; ++tag) {
    std::vector<std::pair<sim::TimeNs, proto::MsgSeq>> settled;
    for (int k = 0; k < kPerTag; ++k) {
      const RecvHandle& r = recvs[k * kTags + tag];
      ASSERT_TRUE(r->completed());
      EXPECT_GE(r->completion_time(), 0);
      settled.emplace_back(r->completion_time(), r->seq());
    }
    std::sort(settled.begin(), settled.end());
    std::vector<proto::MsgSeq> seqs;
    for (const auto& [time, seq] : settled) seqs.push_back(seq);
    std::sort(seqs.begin(), seqs.end());
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], i) << "stream requests lost or duplicated";
    }
  }
  { auto quiesce = p.b().submission_burst(); }
  EXPECT_EQ(p.b().progress_engine()->completions(),
            static_cast<std::uint64_t>(kPerTag * kTags));
}

// Submission-order preservation: N same-tag messages posted back-to-back
// from the app thread must match in post order even though they traverse
// the submission ring — the k-th recv gets the k-th payload, byte-exact.
TEST(ThreadedProgress, SameTagMatchingFollowsPostOrder) {
  TwoNodePlatform p(pin_threaded(paper_platform("split_balance")));
  constexpr int kMessages = 50;
  std::vector<std::vector<std::byte>> payloads, sinks;
  std::vector<SendHandle> sends;
  std::vector<RecvHandle> recvs;
  for (int i = 0; i < kMessages; ++i) {
    // Distinct sizes double as identity markers.
    payloads.push_back(random_bytes(100 + 997 * i, 77 + i));
    sinks.emplace_back(payloads.back().size(), std::byte{0});
  }
  for (int i = 0; i < kMessages; ++i) {
    recvs.push_back(p.b().irecv(p.gate_ba(), 9, sinks[i]));
  }
  for (int i = 0; i < kMessages; ++i) {
    sends.push_back(p.a().isend(p.gate_ab(), 9, payloads[i]));
  }
  p.b().wait_all(sends, recvs);
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(recvs[i]->received_len(), payloads[i].size());
    EXPECT_EQ(sinks[i], payloads[i]) << "message " << i << " mismatched";
  }
}

// --- many-thread submission (per-thread lanes) -------------------------------

/// One worker's traffic in the multi-thread soak: thread t owns tag t for
/// A->B and tag 100+t for B->A, so every (gate, tag) stream has exactly
/// one producing thread and matching order stays deterministic per stream
/// even with T threads submitting concurrently.
struct WorkerTraffic {
  std::vector<std::vector<std::byte>> payloads_ab, payloads_ba;
  std::vector<std::vector<std::byte>> sinks_ab, sinks_ba;
  std::vector<SendHandle> sends;
  std::vector<RecvHandle> recvs;
};

void run_worker(TwoNodePlatform& p, unsigned t, int messages,
                WorkerTraffic& out) {
  util::Xoshiro256 rng(0x5eed0 + t);
  for (int i = 0; i < messages; ++i) {
    const std::size_t size = 1 + rng.next_below(8192);
    out.payloads_ab.push_back(random_bytes(size, t * 1000 + i));
    out.sinks_ab.emplace_back(size, std::byte{0});
    const std::size_t size_back = 1 + rng.next_below(8192);
    out.payloads_ba.push_back(random_bytes(size_back, t * 1000 + 500 + i));
    out.sinks_ba.emplace_back(size_back, std::byte{0});
  }
  const auto tag_ab = static_cast<proto::Tag>(t);
  const auto tag_ba = static_cast<proto::Tag>(100 + t);
  for (int i = 0; i < messages; ++i) {
    // Interleave {send, recv} x {session A, session B} from this thread.
    out.recvs.push_back(p.b().irecv(p.gate_ba(), tag_ab, out.sinks_ab[i]));
    out.sends.push_back(p.a().isend(p.gate_ab(), tag_ab, out.payloads_ab[i]));
    out.recvs.push_back(p.a().irecv(p.gate_ab(), tag_ba, out.sinks_ba[i]));
    out.sends.push_back(p.b().isend(p.gate_ba(), tag_ba, out.payloads_ba[i]));
  }
  // Each worker waits on its own handles (wait is safe from T threads).
  p.a().wait_all(out.sends, out.recvs);
}

void check_worker(const WorkerTraffic& w, unsigned t) {
  for (std::size_t i = 0; i < w.payloads_ab.size(); ++i) {
    EXPECT_EQ(w.sinks_ab[i], w.payloads_ab[i])
        << "thread " << t << " A->B msg " << i << " corrupted";
    EXPECT_EQ(w.sinks_ba[i], w.payloads_ba[i])
        << "thread " << t << " B->A msg " << i << " corrupted";
  }
}

class MultiThreadSoak : public ::testing::TestWithParam<unsigned> {};

// T producer threads, {send, recv} interleaved across both sessions, vs
// the identical pattern run serially: every stream must deliver the same
// bytes. Under TSan (CI tsan-threaded job) this is the concurrency proof
// for lane registration, per-lane rings and parked waiters.
TEST_P(MultiThreadSoak, ProducersAcrossTwoSessionsByteIdenticalToSerial) {
  const unsigned kThreads = GetParam();
  constexpr int kMessages = 25;

  // Serial reference: same per-thread streams, submitted from one thread.
  std::vector<WorkerTraffic> serial_traffic(kThreads);
  {
    TwoNodePlatform serial(pin_serial(paper_platform("aggreg_greedy")));
    for (unsigned t = 0; t < kThreads; ++t) {
      run_worker(serial, t, kMessages, serial_traffic[t]);
    }
    for (unsigned t = 0; t < kThreads; ++t) check_worker(serial_traffic[t], t);
  }

  // Threaded: one producer thread per stream pair, all concurrent.
  std::vector<WorkerTraffic> traffic(kThreads);
  {
    TwoNodePlatform p(pin_threaded(paper_platform("aggreg_greedy")));
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back(
          [&p, t, &traffic] { run_worker(p, t, kMessages, traffic[t]); });
    }
    for (auto& w : workers) w.join();
    for (unsigned t = 0; t < kThreads; ++t) check_worker(traffic[t], t);

    // The engines' ground-truth counters register as metrics (and stay
    // live even with NMAD_METRICS=OFF).
    obs::MetricsRegistry registry;
    p.a().register_metrics(registry, "a.");
    const auto snap = registry.snapshot();
    ASSERT_TRUE(snap.counters.contains("a.progress.completions"));
    EXPECT_GT(snap.counters.at("a.progress.completions"), 0u);
  }

  // Byte identity threaded vs serial, stream by stream.
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(traffic[t].sinks_ab, serial_traffic[t].sinks_ab);
    EXPECT_EQ(traffic[t].sinks_ba, serial_traffic[t].sinks_ba);
  }
}

INSTANTIATE_TEST_SUITE_P(ProducerCounts, MultiThreadSoak,
                         ::testing::Values(2u, 4u, 8u),
                         [](const auto& pinfo) {
                           return std::to_string(pinfo.param) + "threads";
                         });

// Bursts held simultaneously on both sessions by different threads: they
// share the ONE world mutex, so they serialize (never deadlock, never
// overlap) and all traffic lands once both are released.
TEST(ThreadedProgress, ConcurrentBurstsOnTwoSessionsSerialize) {
  TwoNodePlatform p(pin_threaded(paper_platform("aggreg_greedy")));
  constexpr int kMessages = 20;
  std::vector<std::vector<std::byte>> payloads, sinks;
  for (int i = 0; i < kMessages; ++i) {
    payloads.push_back(random_bytes(2048 + 64 * i, 7 * i + 1));
    sinks.emplace_back(payloads.back().size(), std::byte{0});
  }
  std::vector<SendHandle> sends(kMessages);
  std::vector<RecvHandle> recvs(kMessages);

  std::thread recv_burster([&] {
    auto burst = p.b().submission_burst();
    for (int i = 0; i < kMessages; ++i) {
      recvs[i] = p.b().irecv(p.gate_ba(), 3, sinks[i]);
    }
  });
  std::thread send_burster([&] {
    auto burst = p.a().submission_burst();
    for (int i = 0; i < kMessages; ++i) {
      sends[i] = p.a().isend(p.gate_ab(), 3, payloads[i]);
    }
  });
  recv_burster.join();
  send_burster.join();
  p.a().wait_all(sends, recvs);
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(sinks[i], payloads[i]) << "burst msg " << i;
  }
}

// flush_submissions drains EVERY thread's lane, not just the caller's:
// after T producers pushed receives and the main thread flushed, all of
// them must be in B's matching table — the peer's sends then find a
// posted receive (no unexpected-message staging).
TEST(ThreadedProgress, FlushDrainsAllThreadsLanes) {
  TwoNodePlatform p(pin_threaded(paper_platform("aggreg_greedy")));
  constexpr unsigned kThreads = 4;
  constexpr int kMessages = 10;
  std::vector<std::vector<std::byte>> payloads(kThreads * kMessages);
  std::vector<std::vector<std::byte>> sinks(kThreads * kMessages);
  std::vector<RecvHandle> recvs(kThreads * kMessages);
  for (unsigned t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kMessages; ++i) {
      const std::size_t idx = t * kMessages + static_cast<std::size_t>(i);
      payloads[idx] = random_bytes(512 + idx, idx + 1);
      sinks[idx].assign(payloads[idx].size(), std::byte{0});
    }
  }

  std::vector<std::thread> posters;
  for (unsigned t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (int i = 0; i < kMessages; ++i) {
        const std::size_t idx = t * kMessages + static_cast<std::size_t>(i);
        recvs[idx] =
            p.b().irecv(p.gate_ba(), static_cast<proto::Tag>(t), sinks[idx]);
      }
    });
  }
  for (auto& th : posters) th.join();
  // join() gives the happens-before edge: everything the posters pushed is
  // flushable now, from the main thread, across all their lanes.
  p.b().flush_submissions();

  std::vector<SendHandle> sends;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kMessages; ++i) {
      const std::size_t idx = t * kMessages + static_cast<std::size_t>(i);
      sends.push_back(
          p.a().isend(p.gate_ab(), static_cast<proto::Tag>(t), payloads[idx]));
    }
  }
  p.a().wait_all(sends, recvs);
  for (std::size_t idx = 0; idx < payloads.size(); ++idx) {
    EXPECT_EQ(sinks[idx], payloads[idx]);
  }
  // Every receive was matchable before its message arrived.
  EXPECT_EQ(p.b().scheduler().metrics().unexpected_msgs.value(), 0u);
}

// --- parking and the stall watchdog ------------------------------------------

// Nobody ever sends: the world goes quiet and wait() must panic once the
// watchdog has seen stall_timeout_ms (5 s) of unbroken quiet — neither
// hang nor return silently.
TEST(ThreadedProgress, WaitOnUnmatchableRequestPanics) {
  util::set_panic_hook(+[](std::string_view msg) {
    throw std::runtime_error(std::string(msg));
  });
  TwoNodePlatform p(pin_threaded(paper_platform("single_rail")));
  std::vector<std::byte> sink(10);
  auto recv = p.b().irecv(p.gate_ba(), 0, sink);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(p.b().wait(recv), std::runtime_error);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::seconds(5));
  EXPECT_LT(waited, std::chrono::seconds(20)) << "watchdog fired late";
  util::set_panic_hook(nullptr);
}

// An idle threaded world parks: over one second, every thread but this
// (sleeping) one together burns under 5% of a core.
TEST(ThreadedProgress, IdleWorldParks) {
  TwoNodePlatform p(pin_threaded(paper_platform("aggreg_greedy")));
  exchange_one(p);
  const double process0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double self0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double others = (cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process0) -
                        (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - self0);
  EXPECT_LT(others, 0.05) << "idle progress thread burned " << others
                          << " s of CPU in 1 s";
}

// An engine event scheduled by the application thread under the world
// mutex (what the chaos tests do with kill()/kill_link()) must wake the
// parked progress thread and run without any further submit or wait.
TEST(ThreadedProgress, AppThreadEngineEventWakesWorld) {
  TwoNodePlatform p(pin_threaded(paper_platform("aggreg_greedy")));
  exchange_one(p);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  std::atomic<bool> fired{false};
  {
    std::lock_guard<std::mutex> lock(p.world().progress_mutex());
    p.world().engine().schedule(1000, [&fired] { fired.store(true); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!fired.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired.load()) << "parked progress thread missed an engine event";
}

// --- shutdown ---------------------------------------------------------------

TEST(ThreadedProgress, CleanShutdownWithIdleThreads) {
  // Construct, move a little data, destroy. The thread must join without
  // hanging even though it is parked.
  for (int i = 0; i < 5; ++i) {
    TwoNodePlatform p(pin_threaded(paper_platform("single_rail")));
    exchange_one(p);
  }
}

TEST(ThreadedProgress, StopThreadedFallsBackToSerial) {
  TwoNodePlatform p(pin_threaded(paper_platform("aggreg_greedy")));
  ASSERT_TRUE(p.a().threaded());
  p.a().stop_threaded();
  p.b().stop_threaded();
  EXPECT_FALSE(p.a().threaded());
  // Serial entry points still work after the fallback.
  const auto payload = random_bytes(4096, 3);
  std::vector<std::byte> sink(4096);
  auto recv = p.b().irecv(p.gate_ba(), 0, sink);
  auto send = p.a().isend(p.gate_ab(), 0, payload);
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_EQ(sink, payload);
}

}  // namespace
