// Threaded progression benchmark: the same one-way transfer sweep run once
// with serial progression (the application thread drives the engine) and
// once with the world's progress thread feeding off the SPSC submission
// rings.
//
// Simulated transfer performance is a function of the event timeline, not
// of which OS thread steps it — so the threaded curve must match the
// serial curve: any regression means the progression engine reordered or
// delayed work (submissions stalling in the ring, a progress thread
// failing to pick up a deferred pump). The aggregate large-message
// bandwidth check makes that contract a CI gate.
//
// Methodology: one-way (not the harness ping-pong), because the echo leg
// is submitted by the application *after* a wait — and in threaded mode
// the progress thread legitimately keeps draining trailing events past
// the wait's predicate, which shifts the echo's virtual submission time.
// A one-way burst posted under Session::submission_burst() (which holds
// the world mutex, reproducing the serial optimization window) is
// timeline-identical in both modes.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "harness.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

using namespace nmad;
using namespace nmad::bench;

namespace {

core::PlatformConfig with_mode(core::ProgressMode mode) {
  core::PlatformConfig cfg = core::paper_platform("aggreg_greedy");
  cfg.progress_mode = mode;
  return cfg;
}

/// One-way time (µs) for `total` bytes split into `segments` messages,
/// posted as one burst A->B.
double oneway_us(core::TwoNodePlatform& p, std::uint64_t total, int segments,
                 int iters) {
  static std::vector<std::byte> payload, sink;
  if (payload.size() < total) {
    util::Xoshiro256 rng(0x7417eaded);
    payload.resize(total);
    for (auto& x : payload) x = std::byte(rng.next() & 0xff);
    sink.resize(total);
  }

  const auto nseg = static_cast<std::uint64_t>(segments);
  const std::uint64_t base = total / nseg;
  double sum_us = 0.0;
  for (int iter = 0; iter < iters; ++iter) {
    std::vector<core::RecvHandle> recvs;
    std::vector<core::SendHandle> sends;
    std::uint64_t off = 0;
    for (std::uint64_t i = 0; i < nseg; ++i) {
      const std::uint64_t len = (i + 1 == nseg) ? total - off : base;
      recvs.push_back(p.b().irecv(
          p.gate_ba(), 0, std::span<std::byte>(sink.data() + off, len)));
      off += len;
    }
    // Make the receives matchable before any send event fires: without
    // this, the wall-clock race between B's ring drain and A's wire
    // events can push a message through the (slower) unexpected path.
    p.b().flush_submissions();
    sim::TimeNs t0 = 0;
    {
      // One optimization window for the whole burst, as in serial mode.
      auto burst = p.a().submission_burst();
      t0 = p.now();
      off = 0;
      for (std::uint64_t i = 0; i < nseg; ++i) {
        const std::uint64_t len = (i + 1 == nseg) ? total - off : base;
        sends.push_back(p.a().isend(
            p.gate_ab(), 0,
            std::span<const std::byte>(payload.data() + off, len)));
        off += len;
      }
    }
    p.b().wait_all(sends, recvs);
    sim::TimeNs done = t0;
    for (const auto& r : recvs) done = std::max(done, r->completion_time());
    sum_us += sim::ns_to_us(done - t0);
  }
  return sum_us / iters;
}

Series sweep_oneway(const core::PlatformConfig& config, std::string label,
                    const std::vector<std::uint64_t>& sizes, int segments) {
  core::TwoNodePlatform platform(config);
  const int iters = smoke_mode() ? 1 : 3;
  Series series;
  series.label = std::move(label);
  for (const auto size : sizes) {
    series.values.push_back(oneway_us(platform, size, segments, iters));
  }
  obs::MetricsRegistry registry;
  register_platform_metrics(registry, platform);
  series.metrics = registry.snapshot();
  return series;
}

Series to_bandwidth(Series s, const std::vector<std::uint64_t>& sizes) {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    s.values[i] = static_cast<double>(sizes[i]) / s.values[i];  // B/µs == MB/s
  }
  return s;
}

double aggregate(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace

int main() {
  set_report_name("threaded_pingpong");
  std::printf(
      "=== Threaded progression: serial vs the world's progress thread ===\n\n");

  constexpr int kSegments = 2;
  const auto bw_sizes = bandwidth_sizes();
  std::vector<Series> bw;
  bw.push_back(to_bandwidth(sweep_oneway(with_mode(core::ProgressMode::kSerial),
                                         "serial", bw_sizes, kSegments),
                            bw_sizes));
  bw.push_back(
      to_bandwidth(sweep_oneway(with_mode(core::ProgressMode::kThreaded),
                                "threaded", bw_sizes, kSegments),
                   bw_sizes));
  print_table("Threaded vs serial progression, 2-segment one-way bandwidth",
              "MB/s", bw_sizes, bw);

  // The gate: threaded progression must not cost simulated bandwidth.
  // Aggregate over the whole large-message sweep (32 KB .. 8 MB); the
  // 0.999 factor only absorbs float noise — the curves should be equal.
  const double serial_agg = aggregate(bw[0].values);
  const double threaded_agg = aggregate(bw[1].values);
  check_greater("threaded aggregate large-msg bandwidth >= serial (MB/s)",
                threaded_agg, serial_agg * 0.999);
  check("threaded peak (8MB) bandwidth == serial", bw[1].values.back(),
        bw[0].values.back(), 0.001);

  // Small-message side of the same contract: per-rail threads must not add
  // virtual latency either (the paper's polling-gap argument is about real
  // NICs; in simulation the timelines coincide exactly).
  const auto lat_sizes = latency_sizes();
  std::vector<Series> lat;
  lat.push_back(sweep_oneway(with_mode(core::ProgressMode::kSerial), "serial",
                             lat_sizes, kSegments));
  lat.push_back(sweep_oneway(with_mode(core::ProgressMode::kThreaded),
                             "threaded", lat_sizes, kSegments));
  print_table("Threaded vs serial progression, 2-segment one-way latency",
              "us", lat_sizes, lat);
  check("threaded 4B latency == serial", lat[1].values.front(),
        lat[0].values.front(), 0.001);
  check("threaded 32KB latency == serial", lat[1].values.back(),
        lat[0].values.back(), 0.001);

  return checks_exit_code();
}
