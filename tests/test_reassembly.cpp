// Reassembly tests: arbitrary chunk orders, interval merging, overlap
// rejection, rebind migration, scatter into segment lists, and randomized
// permutation properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "proto/reassembly.hpp"
#include "util/rng.hpp"

namespace {

using namespace nmad::proto;

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = std::byte(i * 7 + 1);
  return out;
}

TEST(Reassembly, InOrderChunks) {
  const auto src = pattern(100);
  std::vector<std::byte> dest(100);
  MessageAssembly assembly(dest);
  EXPECT_FALSE(assembly.complete());
  EXPECT_TRUE(assembly.add_chunk(0, std::span(src).subspan(0, 40)).has_value());
  EXPECT_EQ(assembly.fragment_count(), 1u);
  EXPECT_TRUE(assembly.add_chunk(40, std::span(src).subspan(40, 60)).has_value());
  EXPECT_TRUE(assembly.complete());
  EXPECT_EQ(assembly.fragment_count(), 1u);  // merged
  EXPECT_EQ(dest, src);
}

TEST(Reassembly, OutOfOrderChunksMerge) {
  const auto src = pattern(90);
  std::vector<std::byte> dest(90);
  MessageAssembly assembly(dest);
  EXPECT_TRUE(assembly.add_chunk(60, std::span(src).subspan(60, 30)).has_value());
  EXPECT_TRUE(assembly.add_chunk(0, std::span(src).subspan(0, 30)).has_value());
  EXPECT_EQ(assembly.fragment_count(), 2u);
  EXPECT_FALSE(assembly.complete());
  EXPECT_TRUE(assembly.add_chunk(30, std::span(src).subspan(30, 30)).has_value());
  EXPECT_TRUE(assembly.complete());
  EXPECT_EQ(assembly.fragment_count(), 1u);
  EXPECT_EQ(dest, src);
}

TEST(Reassembly, RejectsOverlaps) {
  const auto src = pattern(64);
  std::vector<std::byte> dest(64);
  MessageAssembly assembly(dest);
  EXPECT_TRUE(assembly.add_chunk(10, std::span(src).subspan(10, 20)).has_value());
  // A fully-covered duplicate (failover repost / retransmission whose
  // original landed) is tolerated but applies nothing.
  auto dup = assembly.add_chunk(10, std::span(src).subspan(10, 20));
  ASSERT_TRUE(dup.has_value());
  EXPECT_FALSE(*dup);
  EXPECT_EQ(assembly.bytes_received(), 20u);
  // Sub-range duplicate is also fully covered: tolerated.
  auto sub = assembly.add_chunk(15, std::span(src).subspan(15, 5));
  ASSERT_TRUE(sub.has_value());
  EXPECT_FALSE(*sub);
  // Partial front overlap, partial back overlap, engulfing: still errors.
  EXPECT_FALSE(assembly.add_chunk(5, std::span(src).subspan(5, 10)).has_value());
  EXPECT_FALSE(assembly.add_chunk(25, std::span(src).subspan(25, 10)).has_value());
  EXPECT_FALSE(assembly.add_chunk(0, std::span(src).subspan(0, 64)).has_value());
  // Adjacent (non-overlapping) chunks are fine.
  EXPECT_TRUE(assembly.add_chunk(0, std::span(src).subspan(0, 10)).has_value());
  EXPECT_TRUE(assembly.add_chunk(30, std::span(src).subspan(30, 34)).has_value());
  EXPECT_TRUE(assembly.complete());
}

TEST(Reassembly, RejectsOutOfBounds) {
  const auto src = pattern(32);
  std::vector<std::byte> dest(16);
  MessageAssembly assembly(dest);
  EXPECT_FALSE(assembly.add_chunk(0, std::span(src).subspan(0, 17)).has_value());
  EXPECT_FALSE(assembly.add_chunk(16, std::span(src).subspan(0, 1)).has_value());
  EXPECT_TRUE(assembly.add_chunk(15, std::span(src).subspan(0, 1)).has_value());
}

TEST(Reassembly, EmptyMessageIsCompleteImmediately) {
  MessageAssembly assembly({});
  EXPECT_TRUE(assembly.complete());
  EXPECT_EQ(assembly.total_bytes(), 0u);
  // Empty chunk is a no-op.
  EXPECT_TRUE(assembly.add_chunk(0, {}).has_value());
}

TEST(Reassembly, RebindMigratesReceivedRanges) {
  const auto src = pattern(80);
  std::vector<std::byte> temp(80);
  std::vector<std::byte> user(80, std::byte{0xee});
  MessageAssembly assembly(temp);
  EXPECT_TRUE(assembly.add_chunk(0, std::span(src).subspan(0, 20)).has_value());
  EXPECT_TRUE(assembly.add_chunk(50, std::span(src).subspan(50, 30)).has_value());

  const std::span<std::byte> user_seg = user;
  assembly.rebind(std::span(&user_seg, 1));
  // Received ranges copied; the hole untouched.
  EXPECT_TRUE(std::equal(src.begin(), src.begin() + 20, user.begin()));
  EXPECT_TRUE(std::equal(src.begin() + 50, src.end(), user.begin() + 50));
  EXPECT_EQ(user[30], std::byte{0xee});

  // Further chunks land in the new buffer.
  EXPECT_TRUE(assembly.add_chunk(20, std::span(src).subspan(20, 30)).has_value());
  EXPECT_TRUE(assembly.complete());
  EXPECT_EQ(user, src);
}

TEST(Reassembly, WholeMessageChunkAndReuse) {
  const auto src = pattern(64);
  std::vector<std::byte> temp(64);
  MessageAssembly assembly(temp);
  auto st = assembly.add_chunk(0, src);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(*st);
  EXPECT_TRUE(assembly.complete());
  EXPECT_EQ(assembly.fragment_count(), 1u);
  EXPECT_EQ(temp, src);
  // Once whole, every in-range chunk is a duplicate; out of range is still
  // an error.
  st = assembly.add_chunk(0, src);
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(*st);
  st = assembly.add_chunk(8, std::span(src).subspan(8, 8));
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(*st);
  EXPECT_FALSE(assembly.add_chunk(60, std::span(src).subspan(0, 8)).has_value());

  // Rebinding a whole message carries every byte across.
  std::vector<std::byte> user(64);
  const std::span<std::byte> user_seg = user;
  assembly.rebind(std::span(&user_seg, 1));
  EXPECT_EQ(user, src);

  // Reset reuses the assembly for an unrelated multi-chunk message.
  std::vector<std::byte> next(32);
  assembly.reset(next);
  EXPECT_FALSE(assembly.complete());
  EXPECT_EQ(assembly.fragment_count(), 0u);
  EXPECT_TRUE(assembly.add_chunk(16, std::span(src).subspan(16, 16)).has_value());
  EXPECT_TRUE(assembly.add_chunk(0, std::span(src).subspan(0, 16)).has_value());
  EXPECT_TRUE(assembly.complete());
  EXPECT_TRUE(std::equal(next.begin(), next.end(), src.begin()));
}

TEST(Reassembly, ChunksScatterAcrossSegmentsInOrder) {
  // An 80-byte message into segments of 30 + 10 + 50 bytes: chunks that
  // straddle segment boundaries split across them, bytes past the message
  // stay untouched, and a rebind from contiguous storage lands the same way.
  const auto src = pattern(80);
  std::vector<std::byte> a(30), b(10), c(50, std::byte{0xee});
  const std::span<std::byte> segs[] = {a, b, c};
  MessageAssembly assembly({});
  assembly.reset(segs, 80);
  EXPECT_TRUE(assembly.add_chunk(25, std::span(src).subspan(25, 20)).has_value());
  EXPECT_TRUE(assembly.add_chunk(0, std::span(src).subspan(0, 25)).has_value());
  EXPECT_TRUE(assembly.add_chunk(45, std::span(src).subspan(45, 35)).has_value());
  EXPECT_TRUE(assembly.complete());
  std::vector<std::byte> joined(a);
  joined.insert(joined.end(), b.begin(), b.end());
  joined.insert(joined.end(), c.begin(), c.begin() + 40);
  EXPECT_EQ(joined, src);
  EXPECT_EQ(std::vector<std::byte>(c.begin() + 40, c.end()),
            std::vector<std::byte>(10, std::byte{0xee}));

  std::vector<std::byte> temp(80);
  std::fill(a.begin(), a.end(), std::byte{0});
  std::fill(b.begin(), b.end(), std::byte{0});
  assembly.reset(temp);
  EXPECT_TRUE(assembly.add_chunk(20, std::span(src).subspan(20, 30)).has_value());
  assembly.rebind(segs);
  EXPECT_TRUE(std::equal(a.begin() + 20, a.end(), src.begin() + 20));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), src.begin() + 30));
  EXPECT_EQ(a[19], std::byte{0});
  EXPECT_TRUE(assembly.add_chunk(0, std::span(src).subspan(0, 20)).has_value());
  EXPECT_TRUE(assembly.add_chunk(50, std::span(src).subspan(50, 30)).has_value());
  EXPECT_TRUE(assembly.complete());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), src.begin()));
  EXPECT_TRUE(std::equal(c.begin(), c.begin() + 40, src.begin() + 40));
}

TEST(Reassembly, RandomPermutationsReconstructExactly) {
  nmad::util::Xoshiro256 rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::size_t total = 1 + rng.next_below(5000);
    const auto src = pattern(total);

    // Random partition into chunks.
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::size_t off = 0;
    while (off < total) {
      const std::size_t len = 1 + rng.next_below(std::min<std::size_t>(600, total - off));
      chunks.emplace_back(off, len);
      off += len;
    }
    std::shuffle(chunks.begin(), chunks.end(), rng);

    std::vector<std::byte> dest(total);
    MessageAssembly assembly(dest);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_FALSE(assembly.complete());
      auto [o, l] = chunks[i];
      ASSERT_TRUE(assembly.add_chunk(o, std::span(src).subspan(o, l)).has_value());
      EXPECT_EQ(assembly.bytes_received(),
                std::accumulate(chunks.begin(), chunks.begin() + i + 1, 0ull,
                                [](std::uint64_t acc, auto c) { return acc + c.second; }));
    }
    EXPECT_TRUE(assembly.complete());
    EXPECT_EQ(assembly.fragment_count(), 1u);
    EXPECT_EQ(dest, src);
  }
}

}  // namespace
