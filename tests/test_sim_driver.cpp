// Simulated-driver semantics: PIO serialization on the host CPU, DMA
// overlap under bus contention, eager FIFO delivery, poll penalties, and
// calibration of the presets against the paper's platform numbers.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "drv/sim_driver.hpp"
#include "drv/sim_world.hpp"
#include "netmodel/nic_profile.hpp"
#include "proto/wire.hpp"
#include "sim/time.hpp"
#include "test_packets.hpp"

namespace {

using namespace nmad;
using namespace nmad::drv;

struct Fixture {
  SimWorld world;
  NodeId na, nb;
  SimDriver* myri_a = nullptr;
  SimDriver* myri_b = nullptr;
  SimDriver* quad_a = nullptr;
  SimDriver* quad_b = nullptr;

  Fixture() {
    netmodel::HostProfile host;
    na = world.add_node(host);
    nb = world.add_node(host);
    std::tie(myri_a, myri_b) = world.add_link(na, nb, netmodel::myri10g());
    std::tie(quad_a, quad_b) = world.add_link(na, nb, netmodel::quadrics_qm500());
  }
};

proto::PacketView data_packet(std::uint32_t payload_len) {
  std::vector<std::byte> payload(payload_len, std::byte{0x7f});
  return test::owned_data_packet(
      proto::SegHeader{0, 0, 0, payload_len, payload_len}, payload);
}

TEST(SimDriver, CapsReflectProfile) {
  Fixture f;
  EXPECT_EQ(f.myri_a->caps().name, "myri10g");
  EXPECT_NEAR(f.myri_a->caps().latency_us, 2.8, 1e-9);
  EXPECT_NEAR(f.quad_a->caps().latency_us, 1.7, 1e-9);
  EXPECT_EQ(f.myri_a->caps().max_small_packet, 8u * 1024);
  EXPECT_GT(f.myri_a->caps().bandwidth_mbps, f.quad_a->caps().bandwidth_mbps);
}

TEST(SimDriver, MinimalEagerLatencyMatchesPaper) {
  Fixture f;
  sim::TimeNs delivered = -1;
  f.myri_b->set_deliver([&](Track, std::span<const std::byte>) {
    delivered = f.world.now();
  });
  f.quad_b->set_deliver([](Track, std::span<const std::byte>) {});

  f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(4), 0.0}, nullptr);
  f.world.engine().run();
  // 2.8 us host+wire latency, + PIO copy of the 40-byte header+payload,
  // + the poll penalty for the receiver's second (Quadrics) rail.
  const double us = sim::ns_to_us(delivered);
  EXPECT_NEAR(us, 2.8 + 40.0 / 900.0 + 0.3, 0.02);
}

TEST(SimDriver, TrackBusyUntilSendCompletes) {
  Fixture f;
  f.myri_b->set_deliver([](Track, std::span<const std::byte>) {});
  EXPECT_TRUE(f.myri_a->send_idle(Track::kSmall));
  bool sent = false;
  f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(1024), 0.0},
                      [&] { sent = true; });
  EXPECT_FALSE(f.myri_a->send_idle(Track::kSmall));
  EXPECT_TRUE(f.myri_a->send_idle(Track::kLarge));  // tracks independent
  f.world.engine().run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(f.myri_a->send_idle(Track::kSmall));
}

TEST(SimDriver, PioSendsOnDistinctRailsSerializeOnCpu) {
  // The paper's key small-message effect (§3.2): the host CPU is the
  // bottleneck, so "parallel" PIO sends on two NICs are sequential.
  Fixture f;
  sim::TimeNs myri_sent = -1, quad_sent = -1;
  f.myri_b->set_deliver([](Track, std::span<const std::byte>) {});
  f.quad_b->set_deliver([](Track, std::span<const std::byte>) {});

  f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(4096), 0.0},
                      [&] { myri_sent = f.world.now(); });
  f.quad_a->post_send(SendDesc{Track::kSmall, data_packet(4096), 0.0},
                      [&] { quad_sent = f.world.now(); });
  f.world.engine().run();

  const double myri_cpu = 1.0 + (4096 + 36) / 900.0;  // o_send + copy
  const double quad_cpu = 0.6 + (4096 + 36) / 700.0;
  EXPECT_NEAR(sim::ns_to_us(myri_sent), myri_cpu, 0.02);
  // The Quadrics copy cannot start until the Myri copy released the CPU.
  EXPECT_NEAR(sim::ns_to_us(quad_sent), myri_cpu + quad_cpu, 0.02);
}

TEST(SimDriver, DmaSendsOverlapAndShareTheBus) {
  // The paper's large-message effect: DMA engines work in parallel, capped
  // by the ~2 GB/s host I/O bus -> aggregate ~1675-1950 MB/s.
  Fixture f;
  sim::TimeNs myri_done = -1, quad_done = -1;
  f.myri_b->set_deliver([](Track, std::span<const std::byte>) {});
  f.quad_b->set_deliver([](Track, std::span<const std::byte>) {});

  const std::uint32_t len = 4 * 1024 * 1024;
  f.myri_a->post_send(SendDesc{Track::kLarge, data_packet(len), 0.0},
                      [&] { myri_done = f.world.now(); });
  f.quad_a->post_send(SendDesc{Track::kLarge, data_packet(len), 0.0},
                      [&] { quad_done = f.world.now(); });
  f.world.engine().run();

  // Quadrics runs at its link rate (858); Myri at the bus residual (1092).
  const double quad_us = sim::ns_to_us(quad_done);
  const double myri_us = sim::ns_to_us(myri_done);
  EXPECT_NEAR(myri_us, len / 1092.0, len / 1092.0 * 0.02);
  EXPECT_NEAR(quad_us, len / 858.0, len / 858.0 * 0.02);
  // True overlap: total wall time far below the serialized sum.
  EXPECT_LT(std::max(myri_us, quad_us), len / 1210.0 + len / 858.0);
}

TEST(SimDriver, EagerDeliveryIsFifoPerRail) {
  Fixture f;
  std::vector<std::size_t> sizes;
  f.myri_b->set_deliver([&](Track, std::span<const std::byte> wire) {
    sizes.push_back(wire.size());
    // The next packet can only be posted once the track frees; emulate a
    // pipelined sender posting back-to-back from completions.
  });
  f.quad_b->set_deliver([](Track, std::span<const std::byte>) {});

  // Chain three sends of decreasing size; FIFO delivery must preserve order
  // even though the later (smaller) packets spend less time in PIO.
  f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(8000), 0.0}, [&] {
    f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(100), 0.0}, [&] {
      f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(4), 0.0}, nullptr);
    });
  });
  f.world.engine().run();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_GT(sizes[0], sizes[1]);
  EXPECT_GT(sizes[1], sizes[2]);
}

TEST(SimDriver, PollPenaltyScalesWithOtherRails) {
  // One node with three rails: a delivery on one rail pays the poll costs
  // of the other two.
  SimWorld world;
  netmodel::HostProfile host;
  const NodeId na = world.add_node(host);
  const NodeId nb = world.add_node(host);
  auto [m_a, m_b] = world.add_link(na, nb, netmodel::myri10g());
  auto [q_a, q_b] = world.add_link(na, nb, netmodel::quadrics_qm500());
  auto [s_a, s_b] = world.add_link(na, nb, netmodel::dolphin_sci());
  (void)q_a;
  (void)s_a;

  // myri delivery on node b: polls quadrics (0.3) + sci (0.3).
  EXPECT_EQ(world.poll_penalty(nb, m_b), sim::us_to_ns(0.6));
  EXPECT_EQ(world.poll_penalty(nb, q_b), sim::us_to_ns(0.4 + 0.3));
  EXPECT_EQ(world.poll_penalty(nb, s_b), sim::us_to_ns(0.4 + 0.3));
}

TEST(SimDriver, StatsCountPacketsAndBytes) {
  Fixture f;
  int delivered = 0;
  f.myri_b->set_deliver([&](Track, std::span<const std::byte>) { ++delivered; });
  f.quad_b->set_deliver([](Track, std::span<const std::byte>) {});

  f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(100), 0.0}, nullptr);
  f.myri_a->post_send(SendDesc{Track::kLarge, data_packet(100000), 0.0}, nullptr);
  f.world.engine().run();

  EXPECT_EQ(f.myri_a->stats().eager_packets, 1u);
  EXPECT_EQ(f.myri_a->stats().dma_packets, 1u);
  EXPECT_GT(f.myri_a->stats().eager_bytes, 100u);
  EXPECT_GT(f.myri_a->stats().dma_bytes, 100000u);
  EXPECT_EQ(f.myri_b->stats().delivered_packets, 2u);
  EXPECT_EQ(delivered, 2);
}

TEST(SimDriver, ExtraCpuDelaysEagerInjection) {
  Fixture f;
  sim::TimeNs t_plain = -1, t_extra = -1;
  f.myri_b->set_deliver([](Track, std::span<const std::byte>) {});
  f.quad_b->set_deliver([](Track, std::span<const std::byte>) {});

  f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(64), 0.0},
                      [&] { t_plain = f.world.now(); });
  f.world.engine().run();
  const sim::TimeNs cpu_cost = t_plain;  // first send started at t=0

  const sim::TimeNs t1 = f.world.now();
  f.myri_a->post_send(SendDesc{Track::kSmall, data_packet(64), 5.0},
                      [&] { t_extra = f.world.now(); });
  f.world.engine().run();
  EXPECT_EQ(t_extra - t1, cpu_cost + sim::us_to_ns(5.0));
}

TEST(NicProfiles, PresetsValidateAndCalibrate) {
  for (const char* name : {"myri10g", "quadrics", "sci", "gm2", "tcp"}) {
    const auto profile = netmodel::nic_profile_by_name(name);
    ASSERT_TRUE(profile.has_value()) << name;
    EXPECT_TRUE(profile->validate().has_value()) << name;
  }
  EXPECT_FALSE(netmodel::nic_profile_by_name("ethernet").has_value());
  EXPECT_NEAR(netmodel::myri10g().min_latency_us(), 2.8, 1e-9);
  EXPECT_NEAR(netmodel::quadrics_qm500().min_latency_us(), 1.7, 1e-9);
}

TEST(NicProfiles, ValidationCatchesBadFields) {
  auto p = netmodel::myri10g();
  p.pio_bandwidth_mbps = 0.0;
  EXPECT_FALSE(p.validate().has_value());
  p = netmodel::myri10g();
  p.pio_threshold = 0;
  EXPECT_FALSE(p.validate().has_value());
  p = netmodel::myri10g();
  p.poll_cost_us = -1.0;
  EXPECT_FALSE(p.validate().has_value());
  p = netmodel::myri10g();
  p.name.clear();
  EXPECT_FALSE(p.validate().has_value());

  netmodel::HostProfile h;
  h.pio_cores = 0;
  EXPECT_FALSE(h.validate().has_value());
  h = netmodel::HostProfile{};
  h.bus_bandwidth_mbps = -5;
  EXPECT_FALSE(h.validate().has_value());
}

}  // namespace
