// Tests of the MPI-flavored API layer.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/mpi_like.hpp"
#include "core/platform.hpp"
#include "util/panic.hpp"

namespace {

using namespace nmad;

/// The two nodes as ranks 0 (a) and 1 (b) of an N = 2 communicator.
struct CommFixture {
  core::TwoNodePlatform platform{core::paper_platform("aggreg_greedy")};
  api::Communicator a{platform.a(), {core::kNoGate, platform.gate_ab()}, 0};
  api::Communicator b{platform.b(), {platform.gate_ba(), core::kNoGate}, 1};
};

TEST(MpiLike, TypedBlockingSendRecv) {
  CommFixture f;
  std::vector<double> data(1000);
  std::iota(data.begin(), data.end(), 0.0);
  std::vector<double> out(1000);

  auto recv = f.b.irecv(std::span<double>(out), 1);
  f.a.send(std::span<const double>(data), 1);
  recv.wait();
  EXPECT_EQ(recv.status().bytes, 1000u * sizeof(double));
  EXPECT_EQ(recv.status().tag, 1u);
  EXPECT_EQ(out, data);
}

TEST(MpiLike, NonBlockingTestAndWait) {
  CommFixture f;
  std::vector<int> data(64, 7);
  std::vector<int> out(64);

  api::MpiRequest recv = f.b.irecv(std::span<int>(out), 2);
  EXPECT_FALSE(recv.test());
  api::MpiRequest send = f.a.isend(std::span<const int>(data), 2);
  recv.wait();
  send.wait();
  EXPECT_TRUE(recv.test());
  EXPECT_TRUE(send.test());
  EXPECT_EQ(out, data);
}

TEST(MpiLike, SendrecvExchangesBothDirections) {
  CommFixture f;
  std::vector<std::byte> out_a(4096), out_b(4096);
  std::vector<std::byte> data_a(4096, std::byte{0xaa});
  std::vector<std::byte> data_b(4096, std::byte{0xbb});

  // Both sides call sendrecv "simultaneously": to avoid driving the world
  // from one side before the other posts, use the non-blocking pieces for
  // side b and the blocking sendrecv on side a.
  auto recv_b = f.b.irecv_bytes(out_b, 5);
  auto send_b = f.a.session().scheduler().pending_requests();  // just probe
  (void)send_b;
  auto send_back = f.b.isend_bytes(data_b, 6);
  const api::RecvStatus st = f.a.sendrecv(data_a, 5, out_a, 6);
  recv_b.wait();
  send_back.wait();

  EXPECT_EQ(st.bytes, 4096u);
  EXPECT_EQ(out_a, data_b);
  EXPECT_EQ(out_b, data_a);
}

TEST(MpiLike, BarrierSynchronizesTwoParties) {
  CommFixture f;
  EXPECT_EQ(f.a.size(), 2u);
  EXPECT_EQ(f.a.rank(), 0u);
  EXPECT_EQ(f.b.rank(), 1u);
  // a reaches the barrier "late": b enters first (non-blocking, so one
  // thread can drive both ranks), then a's blocking barrier runs the world
  // until both dissemination tokens have crossed.
  coll::CollHandle b_entered = f.b.group().ibarrier();
  EXPECT_FALSE(b_entered->done());
  f.a.barrier();
  EXPECT_TRUE(f.b.group().wait(b_entered));
  EXPECT_GT(f.platform.now(), 0);
}

TEST(MpiLike, LargeTypedTransferUsesMultiRail) {
  CommFixture f;
  std::vector<std::uint64_t> data(1 << 17);  // 1 MB
  std::iota(data.begin(), data.end(), 0u);
  std::vector<std::uint64_t> out(data.size());

  auto recv = f.b.irecv(std::span<std::uint64_t>(out), 3);
  f.a.send(std::span<const std::uint64_t>(data), 3);
  recv.wait();
  EXPECT_EQ(out, data);
  // The greedy strategy moved the bulk over at least one DMA track.
  auto& gate = f.platform.a().scheduler().gate(f.platform.gate_ab());
  EXPECT_GE(gate.rail(0).tx.packets[1] + gate.rail(1).tx.packets[1], 1u);
}

TEST(MpiLike, NullRequestIsTriviallyComplete) {
  api::MpiRequest req;
  EXPECT_TRUE(req.test());
  req.wait();  // no-op, must not crash
}

TEST(MpiLike, RejectsTagsInReservedSpace) {
  // Regression: user tags at or above kReservedTagBase would cross-match
  // collective streams or the barrier token; both posting paths must
  // reject them (and the largest user tag must still work).
  CommFixture f;
  std::vector<std::byte> buf(16);
  util::set_panic_hook(+[](std::string_view msg) {
    throw std::runtime_error(std::string(msg));
  });
  EXPECT_THROW((void)f.a.isend_bytes(buf, core::kReservedTagBase),
               std::runtime_error);
  EXPECT_THROW((void)f.b.irecv_bytes(buf, core::kReservedTagBase),
               std::runtime_error);
  EXPECT_THROW((void)f.a.isend_bytes(buf, 0xffffffffu), std::runtime_error);
  util::set_panic_hook(nullptr);

  auto recv = f.b.irecv_bytes(buf, core::kReservedTagBase - 1);
  std::vector<std::byte> data(16, std::byte{0x5a});
  f.a.send_bytes(data, core::kReservedTagBase - 1);
  recv.wait();
  EXPECT_EQ(buf, data);
}

TEST(MpiLike, NPartyBarrierSynchronizesAllRanks) {
  // Four ranks, threaded progression, one app thread per rank blocking in
  // barrier() — the generalized form of the two-party token exchange.
  core::MultiNodeConfig cfg;
  cfg.nodes = 4;
  cfg.progress_mode = core::ProgressMode::kThreaded;
  core::MultiNodePlatform platform(cfg);

  std::vector<api::Communicator> comms;
  comms.reserve(cfg.nodes);
  for (std::size_t r = 0; r < cfg.nodes; ++r) {
    comms.emplace_back(platform.session(r), platform.gates_from(r), r);
    EXPECT_EQ(comms.back().size(), cfg.nodes);
    EXPECT_EQ(comms.back().rank(), r);
  }

  for (int iteration = 0; iteration < 3; ++iteration) {
    std::atomic<int> entered{0};
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < cfg.nodes; ++r) {
      threads.emplace_back([&, r] {
        entered.fetch_add(1);
        comms[r].barrier();
        // Nobody may leave before everybody entered.
        EXPECT_EQ(entered.load(), static_cast<int>(cfg.nodes));
      });
    }
    for (auto& t : threads) t.join();
  }
}

}  // namespace
