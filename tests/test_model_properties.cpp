// Physics-monotonicity properties of the simulated platform: perturbing
// each NicProfile/HostProfile parameter must move end-to-end transfer
// times in the physically correct direction. These catch sign errors and
// forgotten couplings anywhere between the profile and the wire.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "sim/time.hpp"

namespace {

using namespace nmad;
using namespace nmad::core;
using netmodel::NicProfile;

/// One-way time for `size` bytes on a single-rail platform built from `nic`.
double one_way_us(const NicProfile& nic, std::size_t size,
                  int pio_cores = 1) {
  PlatformConfig cfg;
  cfg.links = {nic};
  cfg.strategy = "single_rail";
  cfg.host_a.pio_cores = pio_cores;
  cfg.host_b.pio_cores = pio_cores;
  TwoNodePlatform p(pin_serial(std::move(cfg)));

  std::vector<std::byte> payload(size, std::byte{0x44});
  std::vector<std::byte> sink(size);
  auto recv = p.b().irecv(p.gate_ba(), 0, sink);
  const sim::TimeNs t0 = p.now();
  auto send = p.a().isend(p.gate_ab(), 0, payload);
  p.b().wait(recv);
  p.a().wait(send);
  return sim::ns_to_us(recv->completion_time() - t0);
}

struct ParamCase {
  std::string name;
  std::function<void(NicProfile&, double)> apply;  // scale the parameter
  std::size_t probe_size;  // message size where the parameter matters
};

/// Without this, gtest prints the raw bytes of the struct (pointers
/// included) into the test names, which then change from build to build.
void PrintTo(const ParamCase& pc, std::ostream* os) {
  *os << pc.name << " @ " << pc.probe_size << " B";
}

class SlowerParamMakesSlower : public ::testing::TestWithParam<ParamCase> {};

TEST_P(SlowerParamMakesSlower, Holds) {
  const ParamCase& pc = GetParam();
  NicProfile base = netmodel::myri10g();
  NicProfile worse = base;
  pc.apply(worse, 2.0);  // make the parameter 2x worse
  ASSERT_TRUE(worse.validate().has_value());

  const double t_base = one_way_us(base, pc.probe_size);
  const double t_worse = one_way_us(worse, pc.probe_size);
  EXPECT_GT(t_worse, t_base) << pc.name << " at " << pc.probe_size << "B";

  NicProfile better = base;
  pc.apply(better, 0.5);  // and 2x better
  ASSERT_TRUE(better.validate().has_value());
  const double t_better = one_way_us(better, pc.probe_size);
  EXPECT_LT(t_better, t_base) << pc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllParameters, SlowerParamMakesSlower,
    ::testing::Values(
        ParamCase{"send_overhead",
                  [](NicProfile& p, double f) { p.send_overhead_us *= f; }, 64},
        ParamCase{"recv_overhead",
                  [](NicProfile& p, double f) { p.recv_overhead_us *= f; }, 64},
        ParamCase{"wire_latency",
                  [](NicProfile& p, double f) { p.wire_latency_us *= f; }, 64},
        ParamCase{"pio_bandwidth_inverse",
                  [](NicProfile& p, double f) { p.pio_bandwidth_mbps /= f; },
                  4096},
        ParamCase{"dma_setup",
                  [](NicProfile& p, double f) { p.dma_setup_us *= f; },
                  64 * 1024},
        ParamCase{"dma_bandwidth_inverse",
                  [](NicProfile& p, double f) { p.dma_bandwidth_mbps /= f; },
                  4 << 20},
        ParamCase{"dma_start",
                  [](NicProfile& p, double f) { p.dma_start_us *= f; },
                  64 * 1024}),
    [](const auto& pinfo) { return pinfo.param.name; });

TEST(ModelProperties, BusNeverMattersForOneIsolatedRail) {
  // A single Myri-10G DMA flow (1210 MB/s) is below the bus (1950 MB/s):
  // halving or doubling the bus must not change anything.
  for (double bus : {1300.0, 1950.0, 4000.0}) {
    PlatformConfig cfg;
    cfg.links = {netmodel::myri10g()};
    cfg.strategy = "single_rail";
    cfg.host_a.bus_bandwidth_mbps = bus;
    cfg.host_b.bus_bandwidth_mbps = bus;
    TwoNodePlatform p(pin_serial(std::move(cfg)));

    std::vector<std::byte> payload(4 << 20, std::byte{0x1});
    std::vector<std::byte> sink(4 << 20);
    auto recv = p.b().irecv(p.gate_ba(), 0, sink);
    auto send = p.a().isend(p.gate_ab(), 0, payload);
    p.b().wait(recv);
    p.a().wait(send);
    static sim::TimeNs reference = -1;
    if (reference < 0) reference = recv->completion_time();
    EXPECT_EQ(recv->completion_time(), reference) << "bus " << bus;
  }
}

TEST(ModelProperties, NarrowBusThrottlesTwoRailAggregate) {
  // Sweep the bus downward under a 2-rail hetero split: aggregate
  // bandwidth must track the bus once it binds.
  for (double bus : {2500.0, 1600.0, 1000.0}) {
    PlatformConfig cfg = paper_platform("iso_split");
    cfg.host_a.bus_bandwidth_mbps = bus;
    cfg.host_b.bus_bandwidth_mbps = bus;
    TwoNodePlatform p(pin_serial(std::move(cfg)));

    const std::size_t size = 8 << 20;
    std::vector<std::byte> payload(size, std::byte{0x2});
    std::vector<std::byte> sink(size);
    auto recv = p.b().irecv(p.gate_ba(), 0, sink);
    const sim::TimeNs t0 = p.now();
    auto send = p.a().isend(p.gate_ab(), 0, payload);
    p.b().wait(recv);
    p.a().wait(send);
    const double mbps =
        static_cast<double>(size) / sim::ns_to_us(recv->completion_time() - t0);
    EXPECT_LT(mbps, bus + 1.0) << "bus " << bus;
    if (bus <= 1600.0) {
      // Bound by the bus, and achieving most of it.
      EXPECT_GT(mbps, bus * 0.9) << "bus " << bus;
    }
  }
}

TEST(ModelProperties, ExtraPioCoresNeverHurtAndOnlyHelpMultiRail) {
  // Single rail: one PIO stream, a second core changes nothing.
  const double single_1 = one_way_us(netmodel::myri10g(), 4096, 1);
  const double single_2 = one_way_us(netmodel::myri10g(), 4096, 2);
  EXPECT_DOUBLE_EQ(single_1, single_2);
}

TEST(ModelProperties, LatencyOrderingAcrossAllPresets) {
  // End-to-end 4-byte latency must respect the presets' design ordering:
  // sci < quadrics < myri10g < gm2 < tcp (SCI was historically the
  // lowest-latency interconnect of the set).
  const double t_quad = one_way_us(netmodel::quadrics_qm500(), 4);
  const double t_sci = one_way_us(netmodel::dolphin_sci(), 4);
  const double t_myri = one_way_us(netmodel::myri10g(), 4);
  const double t_gm2 = one_way_us(netmodel::myrinet2000_gm2(), 4);
  const double t_tcp = one_way_us(netmodel::gige_tcp(), 4);
  EXPECT_LT(t_sci, t_quad);
  EXPECT_LT(t_quad, t_myri);
  EXPECT_LT(t_myri, t_gm2);
  EXPECT_LT(t_gm2, t_tcp);
  EXPECT_NEAR(t_gm2, 6.5, 0.3);  // GM-2 calibration
}

TEST(ModelProperties, BandwidthOrderingAcrossAllPresets) {
  auto bw = [](const NicProfile& nic) {
    const double us = one_way_us(nic, 8 << 20);
    return static_cast<double>(8 << 20) / us;
  };
  const double myri = bw(netmodel::myri10g());
  const double quad = bw(netmodel::quadrics_qm500());
  const double sci = bw(netmodel::dolphin_sci());
  const double gm2 = bw(netmodel::myrinet2000_gm2());
  EXPECT_GT(myri, quad);
  EXPECT_GT(quad, sci);
  EXPECT_GT(sci, gm2);
  EXPECT_NEAR(gm2, 245.0, 10.0);
}

}  // namespace
