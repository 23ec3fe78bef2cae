// Session-level odds and ends: test(), scatter receives shorter than the
// registered segments (and what test() sees of them), release of finished
// requests, the sampling cache wiring, and deadlock detection.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/mpi_like.hpp"
#include "core/platform.hpp"
#include "sampling/ratio_table.hpp"
#include "sim/engine.hpp"
#include "util/panic.hpp"

namespace {

using namespace nmad;
using namespace nmad::core;

TEST(Session, TestReflectsCompletion) {
  TwoNodePlatform p(paper_platform("single_rail"));
  std::vector<std::byte> payload(100, std::byte{1});
  std::vector<std::byte> sink(100);
  RecvHandle recv;
  SendHandle send;
  {
    // Hold progression across the checks: in threaded mode the progress
    // thread could otherwise settle both requests before test() runs.
    auto burst = p.a().submission_burst();
    recv = p.b().irecv(p.gate_ba(), 0, sink);
    send = p.a().isend(p.gate_ab(), 0, payload);
    EXPECT_FALSE(Session::test(send));
    EXPECT_FALSE(Session::test(recv));
  }
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_TRUE(Session::test(send));
  EXPECT_TRUE(Session::test(recv));
}

TEST(Session, UnpackScattersShorterMessageIntoLeadingSegments) {
  // The sender ships 150 bytes; the receiver registered 100+100. The first
  // segment fills fully, the second only halfway.
  TwoNodePlatform p(paper_platform("single_rail"));
  std::vector<std::byte> payload(150, std::byte{0x5e});
  std::vector<std::byte> out1(100, std::byte{0}), out2(100, std::byte{0});

  auto unpack = p.b().unpack(p.gate_ba(), 0);
  unpack.add(out1).add(out2);
  auto recv = unpack.submit();
  auto send = p.a().isend(p.gate_ab(), 0, payload);
  p.b().wait(recv);
  p.a().wait(send);

  EXPECT_EQ(recv->received_len(), 150u);
  EXPECT_EQ(out1, std::vector<std::byte>(100, std::byte{0x5e}));
  EXPECT_TRUE(std::equal(out2.begin(), out2.begin() + 50,
                         std::vector<std::byte>(50, std::byte{0x5e}).begin()));
  EXPECT_EQ(out2[50], std::byte{0});  // beyond the message: untouched
}

TEST(Session, TestSeesUnpackedDataInPlace) {
  // Polling instead of waiting: once test() reports a receive complete, its
  // bytes must already be in the user's memory — for a multi-segment
  // unpack receive (150 B into 100+100) as for an MPI-style receive.
  TwoNodePlatform p(paper_platform("single_rail"));
  api::Communicator a{p.a(), {kNoGate, p.gate_ab()}, 0};
  api::Communicator b{p.b(), {p.gate_ba(), kNoGate}, 1};
  std::vector<std::byte> payload(150, std::byte{0x5e});
  std::vector<std::byte> out1(100, std::byte{0}), out2(100, std::byte{0});
  std::vector<int> data(64, 7), out(64, 0);

  auto unpack = p.b().unpack(p.gate_ba(), 0);
  unpack.add(out1).add(out2);
  RecvHandle recv = unpack.submit();
  api::MpiRequest mpi_recv = b.irecv(std::span<int>(out), 1);
  SendHandle send = p.a().isend(p.gate_ab(), 0, payload);
  api::MpiRequest mpi_send = a.isend(std::span<const int>(data), 1);

  // Serial mode: step the simulator between polls, as an application
  // overlapping computation with communication would let it progress.
  // Threaded mode: the progress thread moves everything.
  while (!Session::test(recv) || !mpi_recv.test()) {
    if (p.progress_mode() == ProgressMode::kSerial) {
      ASSERT_TRUE(p.world().engine().step()) << "world went idle";
    } else {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(recv->received_len(), 150u);
  EXPECT_EQ(out1, std::vector<std::byte>(100, std::byte{0x5e}));
  EXPECT_TRUE(std::equal(out2.begin(), out2.begin() + 50,
                         std::vector<std::byte>(50, std::byte{0x5e}).begin()));
  EXPECT_EQ(out2[50], std::byte{0});
  EXPECT_EQ(out, data);

  p.a().wait(send);
  mpi_send.wait();
}

TEST(Session, CompletedRequestsAreReleasedInSmallBatches) {
  // The scheduler keeps every request alive until it is done; once the
  // caller has dropped a finished one, it must be freed within a few
  // hundred messages, not after thousands pile up.
  TwoNodePlatform p(paper_platform("single_rail"));
  std::vector<std::byte> payload(8, std::byte{7});
  std::vector<std::byte> sink(8);
  std::weak_ptr<SendRequest> first_send;
  std::weak_ptr<RecvRequest> first_recv;
  for (int i = 0; i <= 200; ++i) {
    auto recv = p.b().irecv(p.gate_ba(), 0, sink);
    auto send = p.a().isend(p.gate_ab(), 0, payload);
    p.b().wait(recv);
    p.a().wait(send);
    if (i == 0) {
      first_send = send;
      first_recv = recv;
    }
  }
  EXPECT_TRUE(first_send.expired());
  EXPECT_TRUE(first_recv.expired());
}

TEST(Session, SamplingCacheWrittenAndReused) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "nmad_platform_cache_test.txt").string();
  std::error_code ec;
  fs::remove(path, ec);

  // First platform: measures and writes the cache.
  {
    PlatformConfig cfg = paper_platform("split_balance");
    cfg.sampled_ratios = true;
    cfg.sampling_cache_path = path;
    TwoNodePlatform p(std::move(cfg));
    EXPECT_NEAR(p.a().scheduler().gate(p.gate_ab()).ratio(0), 0.585, 0.02);
  }
  ASSERT_TRUE(fs::exists(path));

  // Replace the cache with distinguishable fake ratios: a second platform
  // must *load* them instead of re-measuring.
  {
    auto table = sampling::RatioTable::parse(
        "# nmad sampling cache v1\n"
        "myri10g 2.8 10.0 1.0e-03 1.0\n"     // 1000 MB/s
        "quadrics 1.7 10.0 1.0e-03 1.0\n");  // 1000 MB/s -> 50/50 ratios
    ASSERT_TRUE(table.has_value());
    ASSERT_TRUE(table->save(path).has_value());

    PlatformConfig cfg = paper_platform("split_balance");
    cfg.sampled_ratios = true;
    cfg.sampling_cache_path = path;
    TwoNodePlatform p(std::move(cfg));
    EXPECT_NEAR(p.a().scheduler().gate(p.gate_ab()).ratio(0), 0.5, 1e-9);
  }

  // A cache with the wrong rail count is ignored (re-measured).
  {
    auto table = sampling::RatioTable::parse(
        "# nmad sampling cache v1\n"
        "myri10g 2.8 10.0 1.0e-03 1.0\n");
    ASSERT_TRUE(table.has_value());
    ASSERT_TRUE(table->save(path).has_value());

    PlatformConfig cfg = paper_platform("split_balance");
    cfg.sampled_ratios = true;
    cfg.sampling_cache_path = path;
    TwoNodePlatform p(std::move(cfg));
    EXPECT_NEAR(p.a().scheduler().gate(p.gate_ab()).ratio(0), 0.585, 0.02);
  }
  fs::remove(path, ec);
}

TEST(Session, WaitOnUnmatchableRequestPanics) {
  util::set_panic_hook(+[](std::string_view msg) {
    throw std::runtime_error(std::string(msg));
  });
  TwoNodePlatform p(paper_platform("single_rail"));
  std::vector<std::byte> sink(10);
  auto recv = p.b().irecv(p.gate_ba(), 0, sink);
  // Nobody ever sends: the engine drains and wait() must detect the
  // deadlock rather than spin or return silently.
  EXPECT_THROW(p.b().wait(recv), std::runtime_error);
  util::set_panic_hook(nullptr);
}

}  // namespace
