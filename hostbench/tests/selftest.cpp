// Self-tests of hostbench's own analysis code: the percentile rule, span
// self-time accounting (re-entrant nesting, parentless spans on other
// threads, allocation charging) and the per-layer report's bases.
//
//   hostbench_selftest        # exit 0 when every check passes
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
    }                                                                 \
  } while (0)

using namespace hostbench;

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  Percentile p99 = percentile(v, 0.99);
  CHECK(p99.value == 990.0);
  CHECK(p99.beyond == 10);
  CHECK(p99.supported());
  Percentile p50 = percentile(v, 0.50);
  CHECK(p50.value == 500.0);

  // One sample fewer leaves only nine beyond the 99th percentile.
  v.pop_back();
  p99 = percentile(v, 0.99);
  CHECK(p99.beyond == 9);
  CHECK(!p99.supported());

  std::vector<double> empty;
  CHECK(percentile(empty, 0.5).samples == 0);
  CHECK(!percentile(empty, 0.5).supported());

  LogHistogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i);
  const Percentile hp = h.percentile(0.99);
  CHECK(hp.beyond == 10);
  CHECK(std::fabs(hp.value - 990.0) <= 990.0 * 0.04);
  for (std::uint64_t x : {0ULL, 1ULL, 31ULL, 32ULL, 33ULL, 1000ULL, 123456789ULL,
                          ~0ULL >> 1}) {
    const std::size_t b = LogHistogram::bucket_of(x);
    CHECK(b < LogHistogram::kBuckets);
    CHECK(LogHistogram::bucket_low(b) <= x);
    CHECK(x - LogHistogram::bucket_low(b) < LogHistogram::bucket_width(b));
  }

  CHECK(!LogHistogram().percentile(0.99).supported());

  // A round's median needs 21 samples: ten on either side of rank 11.
  std::vector<double> round(21);
  CHECK(percentile(round, 0.5).beyond == kMinBeyond);
  CHECK(percentile(round, 0.5).supported());
  round.pop_back();
  CHECK(!percentile(round, 0.5).supported());
  CHECK(favourable_low({}).value == 0.0);
  CHECK(!favourable_low({}).supported());

  // Nine disturbed rounds in ten leave the favourable figure on the
  // undisturbed ones; the low decile's tail lies below it.
  std::vector<double> rounds;
  for (int i = 0; i < 110; ++i) rounds.push_back(i % 10 == 0 ? 1.0 : 2.0 + i);
  const Percentile low = favourable_low(rounds);
  CHECK(low.value == 1.0);
  CHECK(low.beyond == 10);
  CHECK(low.supported());
  rounds.pop_back();  // 109 rounds: rank ceil(10.9) = 11, still ten below
  CHECK(favourable_low(rounds).beyond == 10);
  rounds.resize(100);  // rank 10: nine below
  CHECK(!favourable_low(rounds).supported());
  for (double& r : rounds) r = -r;  // the high decile's tail lies above it
  CHECK(favourable_high(rounds).beyond == 10);
}

void reentrant_self_time() {
  // pump -> pack -> post -> (the driver delivers in place) rx -> pump
  ThreadLedger led;
  led.begin(Layer::kCorePump, 0);
  led.begin(Layer::kStratPack, 10);
  led.begin(Layer::kDrvPost, 20);
  led.begin(Layer::kRx, 22);
  led.begin(Layer::kCorePump, 23);
  CHECK(led.end(27) == 4);   // inner pump
  CHECK(led.end(28) == 6);   // rx
  CHECK(led.end(30) == 10);  // post
  CHECK(led.end(40) == 30);  // pack
  CHECK(led.end(100) == 100);
  CHECK(led.depth() == 0);
  CHECK(led.totals(Layer::kCorePump).self_ns == 70 + 4);
  CHECK(led.totals(Layer::kCorePump).calls == 2);
  CHECK(led.totals(Layer::kStratPack).self_ns == 20);
  CHECK(led.totals(Layer::kDrvPost).self_ns == 4);
  CHECK(led.totals(Layer::kRx).self_ns == 2);
  // Self times partition the outermost span exactly.
  CHECK(led.self_ns_total() == 100);
}

void progress_thread_spans() {
  Tracer::here().app_thread = true;
  Tracer::start();
  const ThreadLedger* worker_ledger = nullptr;
  {
    Span wait(Layer::kWait);  // open on the app thread while the worker runs
    std::thread worker([&worker_ledger] {
      ThreadLedger& led = Tracer::here();
      // Parentless: nothing is open on this thread.
      led.begin(Layer::kRx, 1000);
      led.begin(Layer::kDrvPost, 1010);
      led.end(1015);
      led.end(1050);
      led.begin(Layer::kCorePump, 2000);
      led.end(2030);
      worker_ledger = &led;
    });
    worker.join();
  }
  Tracer::stop();
  CHECK(worker_ledger != nullptr);
  CHECK(worker_ledger != &Tracer::here());
  CHECK(!worker_ledger->app_thread);
  CHECK(worker_ledger->totals(Layer::kRx).self_ns == 45);
  CHECK(worker_ledger->totals(Layer::kDrvPost).self_ns == 5);
  CHECK(worker_ledger->totals(Layer::kCorePump).self_ns == 30);
  CHECK(worker_ledger->self_ns_total() == 80);
  // The worker's spans are not children of the app thread's open span.
  const ThreadLedger& app = Tracer::here();
  CHECK(app.totals(Layer::kWait).calls == 1);
  CHECK(app.totals(Layer::kRx).calls == 0);
  CHECK(app.self_ns_total() == app.totals(Layer::kWait).self_ns);
}

// Stored through a volatile pointer so the allocation cannot be elided.
int* volatile g_sink = nullptr;
void alloc_one() {
  g_sink = new int(7);
  delete g_sink;
}

void allocation_charging() {
  Tracer::start();
  {
    Span outer(Layer::kCollect);
    alloc_one();
    {
      Span inner(Layer::kStratSubmit);
      alloc_one();
      alloc_one();
      InternalScope internal;
      alloc_one();  // the tracer's own: not charged
    }
  }
  Tracer::stop();
  {
    Span off(Layer::kWait);  // recording off: not charged
    alloc_one();
  }
  const ThreadLedger& led = Tracer::here();
  CHECK(led.totals(Layer::kCollect).allocs == 1);
  CHECK(led.totals(Layer::kStratSubmit).allocs == 2);
  CHECK(led.totals(Layer::kWait).allocs == 0);
}

void ratios_state_bases() {
  auto in = std::make_unique<LayerInputs>();
  // Zero bases everywhere: every figure must still be finite (0).
  std::vector<Metric> ms = per_layer_metrics(*in);
  std::set<std::string> names;
  for (const Metric& m : ms) {
    CHECK(std::isfinite(m.value));
    CHECK(names.insert(m.name).second);
    const bool divided = m.unit == "ratio" || m.unit.find('/') != std::string::npos;
    if (divided && m.base.empty()) {
      std::fprintf(stderr, "metric %s has no base\n", m.name.c_str());
      CHECK(false);
    }
  }
  CHECK(ms.size() == 53);
  // A p99 over no samples breaks the percentile rule, and says so.
  for (const Metric& m : ms) CHECK(m.supported == (m.name.find("_p99") == std::string::npos));

  in->msgs = 10;
  in->counts.pack_calls = 4;
  in->counts.plans = 3;
  in->counts.plan_segments = 9;
  in->traced_wall_ns = 1000;
  in->app_self_ns = 900;
  in->app_catchall_ns = 300;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    in->totals[static_cast<std::size_t>(Layer::kRx)].self_hist.record(v);
  }
  for (const Metric& m : per_layer_metrics(*in)) {
    if (m.name == "strat.pack_hit_ratio") CHECK(m.value == 0.75);
    if (m.name == "strat.segs_per_packet") CHECK(m.value == 3.0);
    if (m.name == "trace.unattributed_frac") CHECK(std::fabs(m.value - 0.1) < 1e-12);
    if (m.name == "trace.catchall_frac") CHECK(std::fabs(m.value - 0.3) < 1e-12);
    if (m.name == "rx.self_ns_p99") CHECK(m.supported);
  }

  const std::string json =
      result_json(true, 3, 0, {{"setup_s", 0.5, "s", ""}, {"x", 1.25, "ns/msg", "m"}});
  CHECK(json == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
                "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, "
                "\"x\": {\"value\": 1.25, \"unit\": \"ns/msg\"}}}");
}

}  // namespace

int main() {
  percentile_rule();
  reentrant_self_time();
  progress_thread_spans();
  allocation_charging();
  ratios_state_bases();
  if (g_failures != 0) {
    std::fprintf(stderr, "hostbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("hostbench_selftest: all checks passed\n");
  return 0;
}
