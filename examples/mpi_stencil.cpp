// A 1-D Jacobi heat-diffusion kernel written MPI-style against the
// api::Communicator layer — the kind of application code the paper's §4
// MPICH-Madeleine plan targets. Two "ranks" (the two simulated nodes) each
// own half the domain and exchange one-cell halos every iteration with
// sendrecv, over the full multi-rail engine.

#include <cmath>
#include <cstdio>
#include <vector>

#include "api/mpi_like.hpp"
#include "core/platform.hpp"
#include "sim/time.hpp"

namespace {

constexpr std::size_t kCellsPerRank = 1 << 15;
constexpr int kIterations = 50;
constexpr double kAlpha = 0.25;

void step(std::vector<double>& cells, double left_halo, double right_halo) {
  std::vector<double> next(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double left = i == 0 ? left_halo : cells[i - 1];
    const double right = i + 1 == cells.size() ? right_halo : cells[i + 1];
    next[i] = cells[i] + kAlpha * (left - 2.0 * cells[i] + right);
  }
  cells = std::move(next);
}

}  // namespace

int main() {
  using namespace nmad;

  core::TwoNodePlatform platform(core::paper_platform("aggreg_greedy"));
  api::Communicator rank0(platform.a(), {core::kNoGate, platform.gate_ab()}, 0);
  api::Communicator rank1(platform.b(), {platform.gate_ba(), core::kNoGate}, 1);

  // Initial condition: a hot spike in the middle of rank0's domain.
  std::vector<double> cells0(kCellsPerRank, 0.0);
  std::vector<double> cells1(kCellsPerRank, 0.0);
  cells0[kCellsPerRank / 2] = 1000.0;

  for (int iter = 0; iter < kIterations; ++iter) {
    // Exchange the boundary cells (rank0's right edge <-> rank1's left
    // edge). Both directions overlap through sendrecv's non-blocking core.
    double edge0 = cells0.back();
    double edge1 = cells1.front();
    double halo0 = 0.0, halo1 = 0.0;

    auto r1 = rank1.irecv(std::span<double>(&halo1, 1), 1);
    auto s1 = rank1.isend(std::span<const double>(&edge1, 1), 2);
    rank0.sendrecv(std::as_bytes(std::span(&edge0, 1)), 1,
                   std::as_writable_bytes(std::span(&halo0, 1)), 2);
    r1.wait();
    s1.wait();

    step(cells0, /*left=*/cells0.front(), /*right=*/halo0);
    step(cells1, /*left=*/halo1, /*right=*/cells1.back());
  }

  // Total heat is conserved up to the open outer boundaries.
  double total = 0.0;
  for (double c : cells0) total += c;
  for (double c : cells1) total += c;

  std::printf("mpi_stencil: %d iterations over 2 ranks x %zu cells\n",
              kIterations, kCellsPerRank);
  std::printf("  heat conserved: %.6f of 1000 (loss through open ends)\n", total);
  std::printf("  heat that crossed to rank1: %.6f\n",
              [&] { double s = 0; for (double c : cells1) s += c; return s; }());
  std::printf("  virtual time: %.1f us (%.2f us per halo exchange)\n",
              sim::ns_to_us(platform.now()),
              sim::ns_to_us(platform.now()) / kIterations);
  const bool ok = std::abs(total - 1000.0) < 1.0;
  std::printf("  %s\n", ok ? "OK" : "HEAT NOT CONSERVED");
  return ok ? 0 : 1;
}
