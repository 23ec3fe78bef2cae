// Micro-benchmarks of the library's hot paths (google-benchmark): these
// run in *real* time and guard against regressions in the code the
// progression engine executes per packet.
//
// The custom main() additionally measures the scatter-gather packet path
// (packets/sec, copied vs total bytes, pool behaviour) and writes the
// machine-readable BENCH_micro_hotpaths.json that CI's bench-smoke job
// gates on via ci/check_bench_json.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/progress.hpp"
#include "core/spsc_ring.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "proto/crc32c.hpp"
#include "proto/pool.hpp"
#include "proto/reassembly.hpp"
#include "proto/wire.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"
#include "util/rng.hpp"

namespace {

using namespace nmad;

void BM_PacketViewEncodeSingle(benchmark::State& state) {
  // The zero-copy single-segment encoder: pooled header block + in-place
  // payload span. Cost must be flat in payload size.
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> payload(len, std::byte{0x42});
  proto::BufferPool pool(proto::packet_wire_size(1, 0));
  for (auto _ : state) {
    auto view = proto::encode_data_packet_view(
        pool,
        proto::SegHeader{1, 2, 0, static_cast<std::uint32_t>(len),
                         static_cast<std::uint32_t>(len)},
        payload);
    benchmark::DoNotOptimize(view.head().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_PacketViewEncodeSingle)->Arg(64)->Arg(4096)->Arg(65536);

void BM_PacketViewAggregatedStaged(benchmark::State& state) {
  // Aggregation keeps the paper's deliberate memcpy, but headers and the
  // staging area come from recycled pooled blocks.
  const auto nseg = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> payload(256, std::byte{0x17});
  proto::BufferPool heads(proto::packet_wire_size(nseg, 0));
  proto::BufferPool staging(nseg * 256);
  for (auto _ : state) {
    proto::GatherBuilder builder(proto::PacketKind::kData, heads.acquire(),
                                 staging.acquire());
    for (std::size_t i = 0; i < nseg; ++i) {
      builder.add_segment_staged(
          proto::SegHeader{7, static_cast<std::uint32_t>(i), 0, 256, 256},
          payload);
    }
    auto view = std::move(builder).finish();
    benchmark::DoNotOptimize(view.head().data());
  }
}
BENCHMARK(BM_PacketViewAggregatedStaged)->Arg(2)->Arg(8)->Arg(64);

void BM_PacketDecode(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> payload(len, std::byte{0x42});
  proto::BufferPool pool;
  const auto wire =
      proto::encode_data_packet_view(
          pool,
          proto::SegHeader{1, 2, 0, static_cast<std::uint32_t>(len),
                           static_cast<std::uint32_t>(len)},
          payload)
          .to_bytes();
  for (auto _ : state) {
    const auto reader = proto::read_packet(wire);
    std::size_t bytes = 0;
    for (const proto::WireSegment& seg : *reader) bytes += seg.payload.size();
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_PacketDecode)->Arg(64)->Arg(65536);

void BM_ReassemblyOutOfOrder(benchmark::State& state) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kChunk = 4096;
  std::vector<std::byte> dest(chunks * kChunk);
  std::vector<std::byte> src(kChunk, std::byte{0x33});
  std::vector<std::size_t> order(chunks);
  for (std::size_t i = 0; i < chunks; ++i) order[i] = i;
  util::Xoshiro256 rng(99);
  std::shuffle(order.begin(), order.end(), rng);

  for (auto _ : state) {
    proto::MessageAssembly assembly(dest);
    for (std::size_t i : order) {
      auto st = assembly.add_chunk(i * kChunk, src);
      benchmark::DoNotOptimize(st.has_value());
    }
    benchmark::DoNotOptimize(assembly.complete());
  }
}
BENCHMARK(BM_ReassemblyOutOfOrder)->Arg(16)->Arg(256);

void BM_EventQueueChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sum = 0;
    util::Xoshiro256 rng(7);
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule(static_cast<sim::TimeNs>(rng.next_below(1000000)),
                      [&sum] { ++sum; });
    }
    engine.run();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_EventQueueChurn)->Arg(1024)->Arg(16384);

void BM_FairShareRecompute(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::FairShareNet net(engine);
    auto bus_a = net.add_constraint(2000.0, "bus_a");
    auto bus_b = net.add_constraint(2000.0, "bus_b");
    std::size_t done = 0;
    for (std::size_t i = 0; i < flows; ++i) {
      auto link = net.add_constraint(1200.0, "link");
      net.start_flow(1 << 20, {link, bus_a, bus_b}, [&done] { ++done; });
    }
    engine.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FairShareRecompute)->Arg(2)->Arg(16);

// --- per-thread submission ring (core/spsc_ring) ----------------------------
// The push/pop pair is what every isend/irecv pays on the many-thread
// submission path, and what the progress thread pays per drained op.
// Uncontended cost must stay in the tens-of-nanoseconds range.

void BM_SpscRingPushPop(benchmark::State& state) {
  // Alternating push/pop on a warm ring: the steady-state cost of one
  // submission traversing the lane with an idle consumer.
  core::SpscRing<std::uint64_t> ring(1024);
  std::uint64_t v = 0, out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(v + 0));
    benchmark::DoNotOptimize(ring.try_pop(out));
    ++v;
  }
  benchmark::DoNotOptimize(out);
}
BENCHMARK(BM_SpscRingPushPop);

void BM_SpscRingBurstDrain(benchmark::State& state) {
  // Fill/drain bursts of range(0) ops: the shape a submission_burst
  // produces (producer runs ahead, the progress thread drains a chunk).
  const auto burst = static_cast<std::uint64_t>(state.range(0));
  core::SpscRing<std::uint64_t> ring(2 * burst);
  std::uint64_t out = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < burst; ++i) {
      benchmark::DoNotOptimize(ring.try_push(i + 0));
    }
    for (std::uint64_t i = 0; i < burst; ++i) {
      benchmark::DoNotOptimize(ring.try_pop(out));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_SpscRingBurstDrain)->Arg(64)->Arg(1024);

void BM_SpscRingBackoffFastPath(benchmark::State& state) {
  // spsc_push_backoff with room available must cost the same as a bare
  // try_push — the stall machinery may only tax the full-ring case.
  core::SpscRing<std::uint64_t> ring(1024);
  std::uint64_t v = 0, out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::spsc_push_backoff(ring, v + 0, 0, [] {}));
    benchmark::DoNotOptimize(ring.try_pop(out));
    ++v;
  }
}
BENCHMARK(BM_SpscRingBackoffFastPath);

// --- obs/ hot-path cost (the <=2% overhead budget) --------------------------
// Counter::inc and Histogram::record are the only operations instrumented
// code runs per packet; both must stay in the couple-of-nanoseconds range
// (and at exactly zero with NMAD_METRICS=OFF, where they compile out).

void BM_MetricsCounterInc(benchmark::State& state) {
  obs::Counter counter;
  std::uint64_t bytes = 1;
  for (auto _ : state) {
    counter.inc(bytes);
    bytes += 7;
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  obs::Histogram hist;
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 2862933555777941757ULL) + 3037000493ULL;  // cheap LCG spread
    benchmark::DoNotOptimize(hist);
  }
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_MetricsSnapshot(benchmark::State& state) {
  // Cold path: registry walk + map construction. Not on the hot path, but
  // keep an eye on it — benches snapshot once per sweep.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<obs::Counter> counters(n);
  obs::MetricsRegistry registry;
  for (std::size_t i = 0; i < n; ++i) {
    registry.add("g.rail" + std::to_string(i % 4) + ".c" + std::to_string(i),
                 &counters[i]);
  }
  for (auto _ : state) {
    obs::Snapshot snap = registry.snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_MetricsSnapshot)->Arg(64)->Arg(512);

// --- proto/ frame checksum ---------------------------------------------------
// Every frame is sealed and verified with CRC32C, so its per-byte cost is
// paid twice per payload byte. `dispatched` is what the library runs (the
// SSE4.2 kernel where the CPU has it); `portable` is the table fallback.

template <typename Kernel>
void BM_Crc32c(benchmark::State& state, Kernel kernel) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256 rng(3);
  for (auto& b : data) b = std::byte(rng.next() & 0xff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(proto::kCrc32cInit, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &proto::crc32c_update)
    ->Arg(64)->Arg(4096)->Arg(65536);
BENCHMARK_CAPTURE(BM_Crc32c, portable, &proto::detail::crc32c_portable)
    ->Arg(64)->Arg(4096)->Arg(65536);

// --- packet-path report (BENCH_micro_hotpaths.json) -------------------------
// Hand-timed measurement of the three packet construction paths the
// strategies exercise per packet. CI gates on the invariants: the
// zero-copy paths must report bytes_copied == 0, aggregation may copy at
// most what it carries, and steady state must run entirely from the pools.

struct PacketPathResult {
  const char* name;
  bool zero_copy;  ///< contract: this path must never copy payload bytes
  double packets_per_sec = 0.0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

template <typename BuildFn>
PacketPathResult measure_packet_path(const char* name, bool zero_copy,
                                     std::size_t payload_per_packet,
                                     proto::BufferPool& heads,
                                     proto::BufferPool& staging,
                                     BuildFn&& build) {
  const bool smoke = std::getenv("NMAD_BENCH_SMOKE") != nullptr;
  const std::uint64_t iters = smoke ? 2'000 : 200'000;
  for (std::uint64_t i = 0; i < 64; ++i) (void)build();  // warm the pools

  const auto hits0 = heads.hit_count() + staging.hit_count();
  const auto misses0 = heads.miss_count() + staging.miss_count();
  std::uint64_t copied = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    proto::PacketView view = build();
    copied += view.copied_bytes();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  PacketPathResult r;
  r.name = name;
  r.zero_copy = zero_copy;
  r.packets_per_sec = secs > 0.0 ? static_cast<double>(iters) / secs : 0.0;
  r.bytes_copied = copied;
  r.total_bytes = iters * payload_per_packet;
  r.pool_hits = heads.hit_count() + staging.hit_count() - hits0;
  r.pool_misses = heads.miss_count() + staging.miss_count() - misses0;
  return r;
}

std::vector<PacketPathResult> run_packet_path_report() {
  std::vector<PacketPathResult> results;

  {  // single-segment eager packet: pooled header + in-place payload span
    constexpr std::size_t kLen = 4096;
    std::vector<std::byte> payload(kLen, std::byte{0x42});
    proto::BufferPool heads(proto::packet_wire_size(1, 0));
    proto::BufferPool staging;
    results.push_back(measure_packet_path(
        "single_eager", /*zero_copy=*/true, kLen, heads, staging, [&] {
          return proto::encode_data_packet_view(
              heads, proto::SegHeader{1, 2, 0, kLen, kLen}, payload);
        }));
  }

  {  // DMA chunk: same zero-copy path, bulk-sized payload referenced in place
    constexpr std::size_t kLen = 256 * 1024;
    std::vector<std::byte> payload(kLen, std::byte{0x17});
    proto::BufferPool heads(proto::packet_wire_size(1, 0));
    proto::BufferPool staging;
    results.push_back(measure_packet_path(
        "dma_chunk", /*zero_copy=*/true, kLen, heads, staging, [&] {
          return proto::encode_data_packet_view(
              heads, proto::SegHeader{3, 4, 0, kLen, kLen}, payload);
        }));
  }

  {  // aggregation: the paper's deliberate memcpy into pooled staging
    constexpr std::size_t kSegs = 8;
    constexpr std::size_t kSegLen = 256;
    std::vector<std::byte> payload(kSegLen, std::byte{0x3c});
    proto::BufferPool heads(proto::packet_wire_size(kSegs, 0));
    proto::BufferPool staging(kSegs * kSegLen);
    results.push_back(measure_packet_path(
        "aggregated", /*zero_copy=*/false, kSegs * kSegLen, heads, staging,
        [&] {
          proto::GatherBuilder builder(proto::PacketKind::kData,
                                       heads.acquire(), staging.acquire());
          for (std::size_t i = 0; i < kSegs; ++i) {
            builder.add_segment_staged(
                proto::SegHeader{7, static_cast<std::uint32_t>(i), 0, kSegLen,
                                 kSegLen},
                payload);
          }
          return std::move(builder).finish();
        }));
  }
  return results;
}

bool write_packet_path_report(const std::vector<PacketPathResult>& results) {
  const char* path = "BENCH_micro_hotpaths.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_hotpaths: cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_hotpaths\",\n");
  std::fprintf(f, "  \"metrics_enabled\": %s,\n",
               obs::kMetricsEnabled ? "true" : "false");
  std::fprintf(f, "  \"smoke\": %s,\n",
               std::getenv("NMAD_BENCH_SMOKE") != nullptr ? "true" : "false");
  // Configuration stamp required by ci/check_bench_json.py: this bench
  // drives no platform, so chaos is always "none" and the seed fixed.
  std::fprintf(f,
               "  \"meta\": {\"progress_mode\": \"%s\", "
               "\"chaos_profile\": \"none\", \"seed\": 0},\n",
               core::to_string(
                   core::resolve_progress_mode(core::ProgressMode::kDefault)));
  std::fprintf(f, "  \"packet_path\": [");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PacketPathResult& r = results[i];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"zero_copy\": %s, "
                 "\"packets_per_sec\": %.6g, \"bytes_copied\": %llu, "
                 "\"total_bytes\": %llu, \"pool_hits\": %llu, "
                 "\"pool_misses\": %llu}",
                 i == 0 ? "" : ",", r.name, r.zero_copy ? "true" : "false",
                 r.packets_per_sec,
                 static_cast<unsigned long long>(r.bytes_copied),
                 static_cast<unsigned long long>(r.total_bytes),
                 static_cast<unsigned long long>(r.pool_hits),
                 static_cast<unsigned long long>(r.pool_misses));
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("REPORT written %s (%zu packet paths)\n", path, results.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto results = run_packet_path_report();
  for (const PacketPathResult& r : results) {
    std::printf("packet_path %-14s %12.0f pkt/s  copied %llu / %llu bytes  "
                "pool %llu hits / %llu misses\n",
                r.name, r.packets_per_sec,
                static_cast<unsigned long long>(r.bytes_copied),
                static_cast<unsigned long long>(r.total_bytes),
                static_cast<unsigned long long>(r.pool_hits),
                static_cast<unsigned long long>(r.pool_misses));
  }
  if (!write_packet_path_report(results)) return 1;

  // The google-benchmark suite runs in full mode only; smoke CI just needs
  // the JSON above and should not spend minutes on timing loops.
  if (std::getenv("NMAD_BENCH_SMOKE") == nullptr) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
