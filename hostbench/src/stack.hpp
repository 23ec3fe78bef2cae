// The communication stacks the workloads run on, assembled by hand from the
// same pieces core::TwoNodePlatform and examples/tcp_pingpong use, so the
// untraced run is the production wiring. A traced stack inserts the
// decorators of traced.hpp between the pieces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "drv/real_world.hpp"
#include "drv/sim_world.hpp"
#include "drv/tcp_driver.hpp"
#include "traced.hpp"

namespace hostbench {

enum class Transport : std::uint8_t { kSim, kTcp };

struct StackSpec {
  Transport transport = Transport::kSim;
  std::string strategy;
  /// Boot-time sampling of the rails, installed as the gates' split ratios.
  bool sampled_ratios = false;
  /// One progress thread per session instead of serial progression.
  bool threaded = false;
};

/// Two endpoints A and B with one gate each way. Not movable: the
/// decorators and hooks hold its address.
class Stack {
 public:
  Stack(const StackSpec& spec, bool traced);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  nmad::core::Session& a() noexcept { return *a_; }
  nmad::core::Session& b() noexcept { return *b_; }
  [[nodiscard]] nmad::core::GateId gate_ab() const noexcept { return gate_ab_; }
  [[nodiscard]] nmad::core::GateId gate_ba() const noexcept { return gate_ba_; }

  /// Virtual time (simulator stacks; 0 over TCP).
  [[nodiscard]] nmad::sim::TimeNs virtual_now() const noexcept;
  /// Engine events fired so far (simulator stacks; 0 over TCP).
  [[nodiscard]] std::uint64_t events_fired() const noexcept;
  /// Pool acquisitions over both gates: {misses, hits + misses}.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> pool_counts();
  /// Submission + completion backpressure stalls over both sessions.
  [[nodiscard]] std::uint64_t progress_stalls();
  /// Rails of both gates whose RailGuard is not healthy.
  [[nodiscard]] std::size_t unhealthy_rails();
  /// Join the progress threads (threaded stacks), so that every ledger
  /// they wrote can be read.
  void stop_threads();

  [[nodiscard]] double sampling_s() const noexcept { return sampling_s_; }
  BoundaryCounts& counts() noexcept { return counts_; }

 private:
  void build_sim(const StackSpec& spec, bool traced);
  void build_tcp(const StackSpec& spec, bool traced);
  nmad::core::GateId connect(nmad::core::Session& s,
                             std::vector<nmad::drv::Driver*> rails,
                             const StackSpec& spec, bool traced);
  std::vector<nmad::drv::Driver*> maybe_wrap(std::vector<nmad::drv::Driver*> raw,
                                             bool traced);

  // Declaration order is teardown order reversed: the sessions go first,
  // then the decorators they call, then the drivers and worlds underneath.
  BoundaryCounts counts_;
  std::unique_ptr<nmad::drv::SimWorld> sim_;
  std::unique_ptr<nmad::drv::TcpDriver> tcp_a_;
  std::unique_ptr<nmad::drv::TcpDriver> tcp_b_;
  std::vector<std::unique_ptr<TracedDriver>> traced_drivers_;
  std::unique_ptr<nmad::drv::RealWorld> real_;
  std::unique_ptr<nmad::core::Session> a_;
  std::unique_ptr<nmad::core::Session> b_;
  nmad::core::GateId gate_ab_ = 0;
  nmad::core::GateId gate_ba_ = 0;
  double sampling_s_ = 0.0;
};

}  // namespace hostbench
