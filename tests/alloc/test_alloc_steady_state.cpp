// Steady-state heap allocation counts of the serial simulated message path.
//
// The paper's just-in-time scheduler builds packets whenever a NIC goes
// idle, which only pays off while the host cost per packet stays far below
// NIC latency; a heap allocation per packet is the first cost to go. This
// binary replaces the global operator new with a counting one (hence its
// own executable: the counter must not leak into nmad_tests) and checks,
// after a warm-up that grows every pool, free list and table to its working
// size:
//  - 8 B ping-pong and 8 B 64-deep windows under aggreg_greedy allocate at
//    most one block per request (the shared_ptr behind each handle) and
//    nothing per packet;
//  - 1 MB messages striped under split_balance make no allocation of 4 KB
//    or more (the simulated wire reuses its buffers);
//  - 64 KB messages received by a 4-segment unpack make none either (the
//    chunks are copied straight into the segments, with no message-sized
//    staging buffer).
// Receives are always posted before the matching sends, so no message ever
// lands in unexpected-message storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/platform.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_big_allocs{0};
constexpr std::size_t kBigAlloc = 4096;

void* counted(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n >= kBigAlloc) g_big_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace nmad;
using namespace nmad::core;

struct Counts {
  std::uint64_t allocs = 0;
  std::uint64_t big = 0;
};

/// Run `body` with the counter on and return what it allocated.
template <typename Body>
Counts count_allocs(Body&& body) {
  g_allocs.store(0);
  g_big_allocs.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return Counts{g_allocs.load(), g_big_allocs.load()};
}

TwoNodePlatform make_platform(const char* strategy, bool sampled) {
  PlatformConfig cfg = pin_serial(paper_platform(strategy));
  cfg.sampled_ratios = sampled;
  return TwoNodePlatform(cfg);
}

/// `n` 8 B round trips: b's receive is posted before a sends, then a's
/// receive before b replies.
void ping_pong(TwoNodePlatform& p, std::size_t n) {
  std::byte ping[8] = {};
  std::byte pong[8] = {};
  std::byte sink_a[8];
  std::byte sink_b[8];
  for (std::size_t i = 0; i < n; ++i) {
    ping[0] = std::byte(i);
    RecvHandle rb = p.b().irecv(p.gate_ba(), 1, sink_b);
    RecvHandle ra = p.a().irecv(p.gate_ab(), 2, sink_a);
    SendHandle sa = p.a().isend(p.gate_ab(), 1, ping);
    p.b().wait(rb);
    pong[0] = sink_b[0];
    SendHandle sb = p.b().isend(p.gate_ba(), 2, pong);
    p.a().wait(ra);
    p.a().wait(sa);
    p.b().wait(sb);
  }
}

/// One-way 8 B messages in windows of `depth`, all receives of a window
/// posted before its sends. The buffers and handle arrays live as long as
/// the stream, so a counted run measures only the library.
struct WindowStream {
  explicit WindowStream(std::size_t d)
      : depth(d), out(d * 8, std::byte{7}), in(d * 8), sends(d), recvs(d) {}

  void run(TwoNodePlatform& p, std::size_t n) {
    for (std::size_t done = 0; done < n; done += depth) {
      for (std::size_t i = 0; i < depth; ++i) {
        recvs[i] = p.b().irecv(p.gate_ba(), 3, std::span(in).subspan(i * 8, 8));
      }
      for (std::size_t i = 0; i < depth; ++i) {
        sends[i] = p.a().isend(p.gate_ab(), 3, std::span(out).subspan(i * 8, 8));
      }
      p.b().wait_all({}, recvs);
      p.a().wait_all(sends, {});
    }
  }

  std::size_t depth;
  std::vector<std::byte> out;
  std::vector<std::byte> in;
  std::vector<SendHandle> sends;
  std::vector<RecvHandle> recvs;
};

void striped(TwoNodePlatform& p, std::size_t n, std::vector<std::byte>& payload,
             std::vector<std::byte>& sink) {
  for (std::size_t i = 0; i < n; ++i) {
    RecvHandle r = p.b().irecv(p.gate_ba(), 4, sink);
    SendHandle s = p.a().isend(p.gate_ab(), 4, payload);
    p.b().wait(r);
    p.a().wait(s);
  }
}

/// `n` messages of `payload`, each received by a 4-segment unpack posted
/// before the send.
void unpacked(TwoNodePlatform& p, std::size_t n, std::vector<std::byte>& payload,
              std::vector<std::byte>& sink) {
  const std::size_t quarter = sink.size() / 4;
  for (std::size_t i = 0; i < n; ++i) {
    UnpackBuilder unpack = p.b().unpack(p.gate_ba(), 5);
    for (std::size_t k = 0; k < 4; ++k) {
      unpack.add(std::span(sink).subspan(k * quarter, quarter));
    }
    RecvHandle r = unpack.submit();
    SendHandle s = p.a().isend(p.gate_ab(), 5, payload);
    p.b().wait(r);
    p.a().wait(s);
  }
}

constexpr std::size_t kMessages = 10'000;

TEST(SteadyStateAllocs, PingPong8BAllocatesOnlyRequests) {
  auto p = make_platform("aggreg_greedy", false);
  ping_pong(p, 1'000);
  const Counts c = count_allocs([&] { ping_pong(p, kMessages / 2); });
  // kMessages messages, each one send and one receive request.
  const std::uint64_t requests = 2 * kMessages;
  std::printf("8 B ping-pong: %llu allocations over %zu messages (%.2f per message)\n",
              static_cast<unsigned long long>(c.allocs), kMessages,
              static_cast<double>(c.allocs) / kMessages);
  EXPECT_LE(c.allocs, requests);
}

TEST(SteadyStateAllocs, Windowed8BAllocatesOnlyRequests) {
  constexpr std::size_t kDepth = 64;
  auto p = make_platform("aggreg_greedy", false);
  WindowStream stream(kDepth);
  stream.run(p, 1'024);
  const std::size_t n = kMessages / kDepth * kDepth;
  const Counts c = count_allocs([&] { stream.run(p, n); });
  std::printf("8 B windows of %zu: %llu allocations over %zu messages (%.2f per message)\n",
              kDepth, static_cast<unsigned long long>(c.allocs), n,
              static_cast<double>(c.allocs) / static_cast<double>(n));
  EXPECT_LE(c.allocs, 2 * n);
}

TEST(SteadyStateAllocs, Striped1MBMakesNoLargeAllocations) {
  constexpr std::size_t kLen = 1 << 20;
  constexpr std::size_t kRuns = 200;
  auto p = make_platform("split_balance", true);
  std::vector<std::byte> payload(kLen, std::byte{0x3c});
  std::vector<std::byte> sink(kLen);
  striped(p, 50, payload, sink);
  const Counts c = count_allocs([&] { striped(p, kRuns, payload, sink); });
  std::printf("1 MB striped: %.2f allocations per message, %llu of >= %zu B over %zu messages\n",
              static_cast<double>(c.allocs) / kRuns,
              static_cast<unsigned long long>(c.big), kBigAlloc, kRuns);
  EXPECT_EQ(c.big, 0u);
  EXPECT_EQ(sink, payload);
}

TEST(SteadyStateAllocs, FourSegmentUnpack64KBMakesNoLargeAllocations) {
  constexpr std::size_t kLen = 64 * 1024;
  constexpr std::size_t kRuns = 200;
  auto p = make_platform("aggreg_greedy", false);
  std::vector<std::byte> payload(kLen, std::byte{0x5a});
  std::vector<std::byte> sink(kLen);
  unpacked(p, 50, payload, sink);
  std::fill(sink.begin(), sink.end(), std::byte{0});
  const Counts c = count_allocs([&] { unpacked(p, kRuns, payload, sink); });
  std::printf("64 KB 4-segment unpack: %.2f allocations per message, %llu of >= %zu B over %zu messages\n",
              static_cast<double>(c.allocs) / kRuns,
              static_cast<unsigned long long>(c.big), kBigAlloc, kRuns);
  EXPECT_EQ(c.big, 0u);
  EXPECT_EQ(sink, payload);
}

}  // namespace
