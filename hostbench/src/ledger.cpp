#include "ledger.hpp"

#include <cstdio>
#include <cstdlib>

namespace hostbench {

namespace {

constinit thread_local ThreadLedger* t_ledger = nullptr;
constinit thread_local int t_internal = 0;

// Static storage: registering a thread or keeping an event never allocates,
// so the tracer cannot disturb the allocation counts it reports.
ThreadLedger g_ledgers[Tracer::kMaxThreads];
std::atomic<std::size_t> g_ledger_count{0};

struct Event {
  std::int64_t start = 0;
  std::int64_t dur = 0;
  std::uint32_t slot = 0;
  Layer layer = Layer::kCollect;
};
constexpr std::size_t kMaxEvents = std::size_t{1} << 17;
Event g_events[kMaxEvents];
std::atomic<std::uint64_t> g_event_next{0};
std::int64_t g_trace_t0 = 0;

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "hostbench: %s\n", what);
  std::abort();
}

}  // namespace

std::atomic<bool> Tracer::recording_{false};

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kCollect: return "collect";
    case Layer::kStratSubmit: return "strat.submit";
    case Layer::kStratPack: return "strat.pack";
    case Layer::kCorePump: return "core.pump";
    case Layer::kCoreSent: return "core.sent";
    case Layer::kCoreTimer: return "core.timer";
    case Layer::kRx: return "rx";
    case Layer::kDrvPost: return "drv.post";
    case Layer::kDrvPoll: return "drv.poll";
    case Layer::kSimEngine: return "sim.engine";
    case Layer::kRealProgress: return "real.progress";
    case Layer::kWait: return "wait";
    case Layer::kCount: break;
  }
  return "?";
}

void LayerTotals::merge(const LayerTotals& other) {
  self_ns += other.self_ns;
  calls += other.calls;
  allocs += other.allocs;
  self_hist.merge(other.self_hist);
}

void ThreadLedger::begin(Layer layer, std::int64_t t) noexcept {
  if (depth_ == kMaxDepth) die("span stack overflow");
  stack_[depth_++] = Frame{layer, t, 0, 0};
}

std::int64_t ThreadLedger::end(std::int64_t t) noexcept {
  if (depth_ == 0) die("span end without a matching begin");
  const Frame f = stack_[--depth_];
  const std::int64_t dur = t - f.start;
  const std::int64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  LayerTotals& tot = totals_[static_cast<std::size_t>(f.layer)];
  tot.self_ns += static_cast<std::uint64_t>(self);
  tot.calls += 1;
  tot.allocs += f.allocs;
  tot.self_hist.record(static_cast<std::uint64_t>(self));
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  Tracer::keep_event(slot, f.layer, f.start, dur);
  return dur;
}

void ThreadLedger::note_alloc() noexcept {
  if (depth_ > 0) stack_[depth_ - 1].allocs += 1;
}

std::uint64_t ThreadLedger::self_ns_total() const noexcept {
  std::uint64_t sum = 0;
  for (const LayerTotals& t : totals_) sum += t.self_ns;
  return sum;
}

void ThreadLedger::reset() noexcept {
  if (depth_ != 0) die("ledger reset with open spans");
  totals_ = {};
}

void Tracer::start() {
  const std::size_t n = ledger_count();
  for (std::size_t i = 0; i < n; ++i) g_ledgers[i].reset();
  g_event_next.store(0, std::memory_order_relaxed);
  g_trace_t0 = now_ns();
  recording_.store(true, std::memory_order_release);
}

ThreadLedger& Tracer::here() {
  if (t_ledger != nullptr) return *t_ledger;
  const std::size_t slot = g_ledger_count.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= kMaxThreads) die("too many tracing threads");
  ThreadLedger& l = g_ledgers[slot];
  l.slot = static_cast<std::uint32_t>(slot);
  t_ledger = &l;
  return l;
}

std::size_t Tracer::ledger_count() noexcept {
  const std::size_t n = g_ledger_count.load(std::memory_order_acquire);
  return n < kMaxThreads ? n : kMaxThreads;
}

const ThreadLedger& Tracer::ledger(std::size_t i) noexcept { return g_ledgers[i]; }

void Tracer::keep_event(std::uint32_t slot, Layer layer, std::int64_t start,
                        std::int64_t dur) noexcept {
  const std::uint64_t i = g_event_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxEvents) g_events[i] = Event{start, dur, slot, layer};
}

std::uint64_t Tracer::dropped_events() noexcept {
  const std::uint64_t n = g_event_next.load(std::memory_order_relaxed);
  return n > kMaxEvents ? n - kMaxEvents : 0;
}

bool Tracer::write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  const std::size_t threads = ledger_count();
  for (std::size_t i = 0; i < threads; ++i) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                 "\"args\":{\"name\":\"%s%zu\"}}\n",
                 i == 0 ? "" : ",", i,
                 g_ledgers[i].app_thread ? "app-" : "progress-", i);
  }
  const std::uint64_t kept = std::min<std::uint64_t>(
      g_event_next.load(std::memory_order_relaxed), kMaxEvents);
  for (std::uint64_t i = 0; i < kept; ++i) {
    const Event& e = g_events[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"hostbench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}\n",
                 threads == 0 && i == 0 ? "" : ",", layer_name(e.layer), e.slot,
                 static_cast<double>(e.start - g_trace_t0) / 1e3,
                 static_cast<double>(e.dur) / 1e3);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

InternalScope::InternalScope() noexcept { ++t_internal; }
InternalScope::~InternalScope() { --t_internal; }

void note_alloc() noexcept {
  ThreadLedger* l = t_ledger;
  if (l == nullptr || t_internal != 0 || !Tracer::recording()) return;
  l->note_alloc();
}

}  // namespace hostbench
