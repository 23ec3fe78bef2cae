// Collective scalability: latency and sessions-established vs. world size
// N ∈ {8, 32, 128, 512}, hierarchical vs. flat trees over lazy sparse
// sessions.
//
// The world is heterogeneous the way the source paper's testbed is: ranks
// are grouped onto hosts of 6 (pattern_gen's group vocabulary — a
// deliberately non-power-of-two size so host blocks never align with
// binomial subtrees), co-hosted ranks talk over a fast Myri-10G rail and
// cross-host edges ride a slow GigE rail. The platform is lazy
// (MultiNodeConfig::lazy): sessions and edges are established on first
// use, so each N-rank world costs O(edges the trees actually touch) — a
// spanning tree's worth, not the full mesh's O(N^2). The "gate:" checks
// (ci/check_bench_json.py fails them even in smoke mode) hold the two
// tentpole claims: lazy establishment stays far below N^2/8 edges at
// N=512, and the hierarchy-composed trees (coll/topology.hpp) beat the
// flat binomial ones on broadcast and allreduce at every N >= 32.
//
// Progress mode follows NMAD_PROGRESS_MODE (the nightly job runs the full
// N=512 sweep in both modes). The default serial runs are virtual-time
// deterministic, so the committed smoke baseline
// (bench/baselines/BENCH_coll_scale.json) matches exactly across machines;
// smoke mode caps the sweep at N=128 to keep the push-time job quick.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "coll/communicator.hpp"
#include "harness.hpp"
#include "pattern_gen.hpp"
#include "util/rng.hpp"

namespace {

using namespace nmad;

/// Host size: deliberately not a power of two (see file comment).
constexpr std::size_t kHostSize = 6;
/// Broadcast root off rank 0, so even the root's host block is unaligned.
constexpr std::size_t kBcastRoot = 1;
constexpr std::size_t kPayloadBytes = 64 * 1024;

std::vector<std::uint64_t> world_sizes() {
  if (bench::smoke_mode()) return {8, 32, 128};
  return {8, 32, 128, 512};
}

core::MultiNodeConfig world_config(std::size_t n) {
  core::MultiNodeConfig cfg;
  cfg.nodes = n;
  cfg.links = {netmodel::gige_tcp()};             // slow cross-host rail
  cfg.intra_host_links = {netmodel::myri10g()};   // fast same-host rail
  cfg.strategy = "single_rail";
  cfg.hosts = bench::group_labels(n, kHostSize);
  cfg.lazy = true;
  // kDefault follows NMAD_PROGRESS_MODE: serial (the deterministic
  // baseline mode) unless the nightly matrix asks for threaded.
  cfg.progress_mode = core::ProgressMode::kDefault;
  return cfg;
}

struct WorldPoint {
  double bcast_us = 0.0;
  double allreduce_us = 0.0;
  std::size_t sessions_established = 0;
  obs::Snapshot metrics;
};

void fail(const char* what, std::size_t n) {
  std::fprintf(stderr, "%s failed at N=%zu\n", what, n);
  std::exit(1);
}

/// One N-rank world: warm (established lazily, untimed), then one timed
/// broadcast and one timed allreduce, contents verified byte-exact.
WorldPoint run_world(std::size_t n, bool hierarchical, bool capture_metrics) {
  core::MultiNodePlatform platform(world_config(n));
  // Threaded worlds run one progress thread per session; at N=512 that
  // oversubscribes small-core hosts badly enough that the 5 s default
  // stall watchdog can fire while work is still (slowly) advancing.
  coll::DriveHooks hooks = coll::hooks_for(platform);
  if (hooks.threaded_session != nullptr) hooks.stall_ms = 120000;
  coll::CollConfig ccfg;
  ccfg.hierarchical = hierarchical;
  std::vector<coll::Communicator> comms;
  comms.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    comms.push_back(coll::make_communicator(platform, r, ccfg));
  }

  constexpr std::size_t kElems = kPayloadBytes / sizeof(std::uint64_t);
  std::vector<std::vector<std::uint64_t>> bufs(
      n, std::vector<std::uint64_t>(kElems));
  std::vector<std::vector<std::uint64_t>> results(
      n, std::vector<std::uint64_t>(kElems));

  auto bcast_once = [&] {
    util::Xoshiro256 rng(n);
    for (auto& v : bufs[kBcastRoot]) v = rng.next();
    for (std::size_t r = 0; r < n; ++r) {
      if (r != kBcastRoot) {
        std::memset(bufs[r].data(), 0, kPayloadBytes);
      }
    }
    std::vector<coll::CollHandle> ops;
    ops.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      ops.push_back(comms[r].ibcast(std::as_writable_bytes(std::span(bufs[r])),
                                    kBcastRoot));
    }
    if (!coll::wait_all(ops, hooks)) fail("broadcast", n);
    for (std::size_t r = 0; r < n; ++r) {
      if (std::memcmp(bufs[r].data(), bufs[kBcastRoot].data(),
                      kPayloadBytes) != 0) {
        fail("broadcast content", n);
      }
    }
  };
  auto allreduce_once = [&] {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < kElems; ++i) {
        bufs[r][i] = r * 0x9e3779b97f4a7c15ull + i;
      }
      std::memset(results[r].data(), 0, kPayloadBytes);
    }
    std::vector<coll::CollHandle> ops;
    ops.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      ops.push_back(comms[r].iallreduce(std::span<const std::uint64_t>(bufs[r]),
                                        std::span<std::uint64_t>(results[r]),
                                        coll::ReduceKind::kSum));
    }
    if (!coll::wait_all(ops, hooks)) fail("allreduce", n);
    for (std::size_t i = 0; i < kElems; ++i) {
      std::uint64_t expect = 0;
      for (std::size_t r = 0; r < n; ++r) expect += bufs[r][i];
      for (std::size_t r = 0; r < n; ++r) {
        if (results[r][i] != expect) fail("allreduce content", n);
      }
    }
  };

  // Warm-up pass: establishes every lazy edge the trees touch (untimed)
  // and reaches the deterministic steady state.
  bcast_once();
  allreduce_once();

  WorldPoint point;
  sim::TimeNs t0 = platform.now();
  bcast_once();
  point.bcast_us = sim::ns_to_us(platform.now() - t0);
  t0 = platform.now();
  allreduce_once();
  point.allreduce_us = sim::ns_to_us(platform.now() - t0);
  point.sessions_established = platform.established_edges();
  if (capture_metrics) {
    obs::MetricsRegistry registry;
    platform.register_metrics(registry);
    point.metrics = registry.snapshot();
  }
  return point;
}

}  // namespace

int main() {
  bench::set_report_name("coll_scale");
  const std::vector<std::uint64_t> kWorldSizes = world_sizes();

  bench::Series hier_bcast, flat_bcast, hier_allred, flat_allred;
  bench::Series hier_sessions, flat_sessions;
  hier_bcast.label = "hier/bcast";
  flat_bcast.label = "flat/bcast";
  hier_allred.label = "hier/allreduce";
  flat_allred.label = "flat/allreduce";
  hier_sessions.label = "hier/sessions";
  flat_sessions.label = "flat/sessions";

  for (std::uint64_t n : kWorldSizes) {
    // Metrics ride the smallest world: the snapshot stays readable and the
    // report still proves rail liveness and clean-run health.
    const bool capture = n == kWorldSizes.front();
    const WorldPoint hier = run_world(n, /*hierarchical=*/true, capture);
    const WorldPoint flat = run_world(n, /*hierarchical=*/false, false);
    hier_bcast.values.push_back(hier.bcast_us);
    flat_bcast.values.push_back(flat.bcast_us);
    hier_allred.values.push_back(hier.allreduce_us);
    flat_allred.values.push_back(flat.allreduce_us);
    hier_sessions.values.push_back(
        static_cast<double>(hier.sessions_established));
    flat_sessions.values.push_back(
        static_cast<double>(flat.sessions_established));
    if (capture) hier_sessions.metrics = hier.metrics;
  }

  bench::print_table(
      "collective latency vs world size (64 KB payload, hosts of 6)", "us",
      kWorldSizes, {hier_bcast, flat_bcast, hier_allred, flat_allred});
  bench::print_table("sessions established (lazy worlds)", "sessions",
                     kWorldSizes, {hier_sessions, flat_sessions});

  // Tentpole gate 1: lazy establishment is O(N log N), hard-capped at
  // N^2/8 — a 512-rank world must build a tree's worth of edges, not a
  // mesh's. (Both trees over the sweep touch ~2(N-1) edges.) Smoke caps
  // the sweep, so the gate rides the largest N actually swept.
  const double n_max = static_cast<double>(kWorldSizes.back());
  bench::check_less("gate: lazy sessions at N=" +
                        std::to_string(kWorldSizes.back()) +
                        " stay below N^2/8",
                    hier_sessions.values.back(), n_max * n_max / 8.0);

  // Tentpole gate 2: the hierarchy composition beats the flat binomial
  // tree on the heterogeneous world at every measured N >= 32.
  for (std::size_t i = 0; i < kWorldSizes.size(); ++i) {
    if (kWorldSizes[i] < 32) continue;
    const std::string n_label = std::to_string(kWorldSizes[i]);
    bench::check_less("gate: hier bcast beats flat at N=" + n_label,
                      hier_bcast.values[i], flat_bcast.values[i]);
    bench::check_less("gate: hier allreduce beats flat at N=" + n_label,
                      hier_allred.values[i], flat_allred.values[i]);
  }

  return bench::checks_exit_code();
}
