// hostbench: what one message costs the host, end to end and per layer.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Every workload is a closed loop with one client: the next request is
// issued only when the previous one (or window) has completed. A run plays
// seeded rounds on kStacks stacks in turn, each warmed up with one round,
// until --seconds have passed, building extra stacks between rounds
// (setup_s). Every received payload is compared byte for byte with the
// seeded pattern it was sent from; any mismatch, failed request or unhealthy
// rail makes the run incorrect and the exit status nonzero.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends a third of the
// time untraced (the reference for trace.overhead and for the virtual-time
// guard) and the rest on a freshly built stack with the decorators of
// traced.hpp installed, and reports the per-layer metrics. See README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "stack.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace hostbench {
namespace {

namespace core = nmad::core;

enum class Workload : std::uint8_t { kSim8B, kSim1MB, kTcp, kSim8BThreaded };

struct WorkloadDef {
  const char* name;
  Workload id;
  StackSpec spec;
  const char* lat_op;  ///< what lat_p50_us / lat_p99_us time
};

const WorkloadDef kWorkloads[] = {
    {"sim_8B", Workload::kSim8B, {Transport::kSim, "aggreg_greedy", false, false},
     "8 B round trip"},
    {"sim_1MB_striped", Workload::kSim1MB, {Transport::kSim, "split_balance", true, false},
     "1 MB one-way transfer"},
    {"tcp_pingpong", Workload::kTcp, {Transport::kTcp, "aggreg", false, false},
     "64 KB round trip"},
    {"sim_8B_threaded", Workload::kSim8BThreaded,
     {Transport::kSim, "aggreg_greedy", false, true}, "8 B round trip"},
};

// Round shape. A round is milliseconds of host time, so a run holds hundreds
// to thousands of rounds and its per-round figures have a steady decile. A
// round's median latency obeys the percentile rule: each round times at
// least 2 * kMinBeyond + 1 latency operations.
constexpr int kSmallPingPongs = 64;         // 8 B round trips per round
constexpr std::size_t kStreamMsgs = 1024;   // 8 B stream messages per round
constexpr std::size_t kMaxWindow = 64;      // stream window depth is 1..kMaxWindow
constexpr int kBulkMsgs = 24;               // 1 MB transfers per round
constexpr int kMidPingPongs = 24;           // 64 KB round trips per round (TCP)
// An end-to-end run plays its rounds on this many stacks, built one after
// another, each on the next CPU the process may use (serial workloads). On a
// shared virtual machine a CPU runs the benchmark about 1.6x slower for
// seconds at a time (sim_8B's 8 B round trip: 5.3 or 8.5-9.5 us, identical
// code and virtual addresses). Staying on one CPU, a whole run can fall into
// such a stretch; moving across CPUs, every run sees fast stretches, which
// the favourable decile then reports.
constexpr int kStacks = 40;
constexpr std::size_t kSmall = 8;
constexpr std::size_t kMid = 64 * 1024;
constexpr std::size_t kBulk = 1024 * 1024;
// Rounds whose call and allocation counts are reported: a fixed amount of
// seeded work, so on serial workloads the counts repeat exactly.
constexpr std::uint64_t kCensusRounds = 4;

// Virtual-time anchors of the paper platform (ROADMAP re-anchor figures).
constexpr double kAnchorVirtRttUs = 4.326;
constexpr double kAnchorVirtNsPerMsg = 74.77;
constexpr double kAnchorVirtGoodputMBps = 1858.0;
constexpr double kAnchorTolerance = 0.01;

constexpr core::Tag kTagPing = 1;
constexpr core::Tag kTagPong = 2;
constexpr core::Tag kTagStream = 3;
constexpr core::Tag kTagBulk = 4;

std::int64_t at_seconds(double s) { return static_cast<std::int64_t>(s * 1e9); }

double cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Seeded payload source: message `idx` of stream `stream` is `len` bytes
/// of one random buffer at an offset derived from (seed, stream, idx).
class Pattern {
 public:
  static constexpr std::size_t kSlack = 4093;

  Pattern(std::uint64_t seed, std::size_t max_len)
      : seed_(seed), bytes_(max_len + kSlack) {
    nmad::util::Xoshiro256 rng(seed ^ 0x5eedULL);
    for (std::byte& b : bytes_) b = static_cast<std::byte>(rng.next() >> 56);
  }
  [[nodiscard]] std::span<const std::byte> at(std::uint64_t stream, std::uint64_t idx,
                                              std::size_t len) const {
    nmad::util::Xoshiro256 mix(seed_ ^ (stream << 48) ^ idx);
    return {bytes_.data() + mix.next() % kSlack, len};
  }

 private:
  std::uint64_t seed_;
  std::vector<std::byte> bytes_;
};

/// Virtual time of one round (simulator stacks), for the virtual-time guard.
struct VirtRound {
  std::int64_t rtt_ns = 0;
  std::uint64_t rtts = 0;
  std::int64_t stream_ns = 0;
  std::uint64_t stream_msgs = 0;
  std::int64_t deep_ns = 0;  ///< the stream's full-depth first window
  std::uint64_t deep_msgs = 0;
  std::int64_t xfer_ns = 0;
  std::uint64_t xfers = 0;

  [[nodiscard]] double rtt_us() const {
    return ratio(static_cast<double>(rtt_ns), static_cast<double>(rtts)) / 1e3;
  }
  [[nodiscard]] double ns_per_msg() const {
    return ratio(static_cast<double>(stream_ns), static_cast<double>(stream_msgs));
  }
  [[nodiscard]] double deep_ns_per_msg() const {
    return ratio(static_cast<double>(deep_ns), static_cast<double>(deep_msgs));
  }
  [[nodiscard]] double goodput_MBps() const {
    return ratio(static_cast<double>(xfers * kBulk) * 1e3, static_cast<double>(xfer_ns));
  }
  bool operator==(const VirtRound&) const = default;
};

/// What one measured phase observed.
struct Phase {
  LogHistogram lat_ns;    ///< every latency operation of the run, ns (tails, printed)
  LogHistogram small_ns;  ///< 8 B round trips over TCP, ns (printed only)
  std::vector<double> round_lat_p50;       ///< median latency per round, us
  std::vector<double> round_small_p50;     ///< median 8 B round trip per round over TCP, us
  std::vector<double> round_goodput;       ///< MB/s per round
  std::vector<double> round_cpu_per_msg;   ///< process CPU ns per message, per round
  std::uint64_t rounds = 0;
  std::uint64_t msgs = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::uint64_t unsupported = 0;  ///< rounds whose median broke the percentile rule
  double wall_ns = 0.0;
  double proc_cpu_ns = 0.0;
  double app_cpu_ns = 0.0;
  VirtRound virt;  ///< round 1 of the first stack
  bool virt_set = false;
};

/// Drives one workload's rounds on a stack and checks every result.
class Traffic {
 public:
  Traffic(const WorkloadDef& def, std::uint64_t seed, Stack& stack, Phase& phase)
      : def_(def),
        seed_(seed),
        st_(stack),
        ph_(phase),
        pattern_(seed, def.id == Workload::kSim1MB ? kBulk : kMid),
        a_buf_(kMid),
        b_buf_(def.id == Workload::kSim1MB ? kBulk : kMid),
        stream_bufs_(kStreamMsgs * kSmall),
        stream_sends_(kStreamMsgs),
        stream_recvs_(kStreamMsgs),
        stream_payloads_(kStreamMsgs) {}

  /// Round 0 is the warm-up: run, checked, but not recorded.
  void round(std::uint64_t r) {
    record_ = r > 0;
    round_lat_.clear();
    round_small_.clear();
    VirtRound virt;
    nmad::util::Xoshiro256 rng(seed_ * 0x9e3779b97f4a7c15ULL + r);
    switch (def_.id) {
      case Workload::kSim8B:
      case Workload::kSim8BThreaded: {
        (void)pingpong(kSmall, kSmallPingPongs, true, &virt);
        const double ns = stream(rng, &virt);
        add_goodput(static_cast<double>(kStreamMsgs * kSmall), ns);
        break;
      }
      case Workload::kSim1MB: {
        const double ns = bulk(&virt);
        add_goodput(static_cast<double>(kBulkMsgs * kBulk), ns);
        break;
      }
      case Workload::kTcp: {
        // The 64 KB round trip carries the gate: over loopback the 8 B one
        // is syscall- and scheduler-bound and moved 30% with the host's
        // load between sets of runs, the 64 KB one under 10%.
        (void)pingpong(kSmall, kSmallPingPongs, false, nullptr);
        const double ns = pingpong(kMid, kMidPingPongs, true, nullptr);
        add_goodput(static_cast<double>(2 * kMidPingPongs * kMid), ns);
        break;
      }
    }
    if (record_) {
      ph_.rounds += 1;
      ph_.round_lat_p50.push_back(round_median(round_lat_));
      if (!round_small_.empty()) ph_.round_small_p50.push_back(round_median(round_small_));
      if (r == 1) keep_virt(virt);
    }
  }

 private:
  enum Stream : std::uint64_t { kPingStream = 1, kPongStream, kSmallStream, kBulkStream };

  double round_median(std::vector<double>& samples) {
    const Percentile p50 = percentile(samples, 0.5);
    if (!p50.supported()) ph_.unsupported += 1;
    return p50.value;
  }

  /// Round 1 of every stack plays the same seeded traffic, so on a serial
  /// simulator stack its virtual timeline must repeat exactly.
  void keep_virt(const VirtRound& virt) {
    const bool serial_sim = def_.spec.transport == Transport::kSim && !def_.spec.threaded;
    if (!ph_.virt_set) {
      ph_.virt = virt;
      ph_.virt_set = true;
    } else if (serial_sim && !(virt == ph_.virt)) {
      fail("the virtual timeline differs between stacks");
    }
  }

  void add_goodput(double bytes, double ns) {
    if (record_) ph_.round_goodput.push_back(bytes / ns * 1e3);
  }

  void count(std::size_t msgs, std::size_t bytes) {
    if (!record_) return;
    ph_.msgs += msgs;
    ph_.payload_bytes += bytes;
    ph_.requests += 2 * msgs;
  }

  void fail(const char* what) {
    ph_.failures += 1;
    if (ph_.failures <= 5) std::fprintf(stderr, "hostbench: FAILED %s\n", what);
  }

  void check_send(const core::SendHandle& h) {
    if (!h->completed() || h->failed()) fail("send did not complete");
  }

  void check_recv(const core::RecvHandle& h, std::span<const std::byte> got,
                  std::span<const std::byte> want) {
    if (!h->completed() || h->failed()) {
      fail("receive did not complete");
    } else if (h->received_len() != want.size() ||
               std::memcmp(got.data(), want.data(), want.size()) != 0) {
      fail("received payload differs from the sent pattern");
    }
  }

  static void poison(std::span<std::byte> buf) {
    std::memset(buf.data(), 0xa5, buf.size());
  }

  /// `n` round trips of `len` bytes: A sends, B (receive pre-posted)
  /// answers; `gated` when they are the workload's latency operation, not
  /// the printed-only 8 B ones over TCP. Returns the summed round-trip host
  /// time (ns).
  double pingpong(std::size_t len, int n, bool gated, VirtRound* virt) {
    core::Session& a = st_.a();
    core::Session& b = st_.b();
    const auto a_in = std::span<std::byte>(a_buf_).first(len);
    const auto b_in = std::span<std::byte>(b_buf_).first(len);
    double total_ns = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto ping = pattern_.at(kPingStream, ping_idx_++, len);
      const auto pong = pattern_.at(kPongStream, pong_idx_++, len);
      poison(a_in);
      poison(b_in);
      const auto rb = irecv(b, st_.gate_ba(), kTagPing, b_in);
      const std::int64_t t0 = now_ns();
      const nmad::sim::TimeNs v0 = st_.virtual_now();
      const auto ra = irecv(a, st_.gate_ab(), kTagPong, a_in);
      const auto sa = isend(a, st_.gate_ab(), kTagPing, ping);
      wait(b, rb);
      const auto sb = isend(b, st_.gate_ba(), kTagPong, pong);
      wait(a, ra);
      const std::int64_t t1 = now_ns();
      wait(a, sa);
      wait(b, sb);
      check_recv(rb, b_in, ping);
      check_recv(ra, a_in, pong);
      check_send(sa);
      check_send(sb);
      const auto ns = static_cast<double>(t1 - t0);
      total_ns += ns;
      if (record_) (gated ? ph_.lat_ns : ph_.small_ns).record(static_cast<std::uint64_t>(ns));
      (gated ? round_lat_ : round_small_).push_back(ns / 1e3);
      if (virt != nullptr) {
        virt->rtt_ns += ra->completion_time() - v0;
        virt->rtts += 1;
      }
      count(2, 2 * len);
    }
    return total_ns;
  }

  [[nodiscard]] std::span<std::byte> stream_buf(std::size_t k) {
    return std::span<std::byte>(stream_bufs_).subspan(k * kSmall, kSmall);
  }

  /// kStreamMsgs one-way 8 B messages in windows against pre-posted
  /// receives: the first window is kMaxWindow deep (its virtual time is
  /// seed-independent, so it carries the virtual-time anchor), the rest
  /// have seeded depths 1..kMaxWindow. The window depths, payloads and
  /// poisoned buffers are prepared before the clock starts and every
  /// message is checked after it stops, so the time is the library's.
  /// Returns the host time (ns).
  double stream(nmad::util::Xoshiro256& rng, VirtRound* virt) {
    core::Session& a = st_.a();
    core::Session& b = st_.b();
    windows_.clear();
    for (std::size_t sent = 0; sent < kStreamMsgs; sent += windows_.back()) {
      const std::size_t depth = sent == 0 ? kMaxWindow : 1 + rng.next_below(kMaxWindow);
      windows_.push_back(std::min(depth, kStreamMsgs - sent));
    }
    for (std::size_t k = 0; k < kStreamMsgs; ++k) {
      stream_payloads_[k] = pattern_.at(kSmallStream, stream_idx_ + k, kSmall);
    }
    poison(stream_bufs_);
    const std::int64_t t0 = now_ns();
    const nmad::sim::TimeNs v0 = st_.virtual_now();
    std::size_t first = 0;
    for (const std::size_t w : windows_) {
      for (std::size_t k = first; k < first + w; ++k) {
        stream_recvs_[k] = irecv(b, st_.gate_ba(), kTagStream, stream_buf(k));
      }
      for (std::size_t k = first; k < first + w; ++k) {
        stream_sends_[k] = isend(a, st_.gate_ab(), kTagStream, stream_payloads_[k]);
      }
      wait_all(a, std::span(stream_sends_).subspan(first, w), {});
      wait_all(b, {}, std::span(stream_recvs_).subspan(first, w));
      if (first == 0 && virt != nullptr) {
        virt->deep_ns += st_.virtual_now() - v0;
        virt->deep_msgs += w;
      }
      first += w;
    }
    const std::int64_t t1 = now_ns();
    for (std::size_t k = 0; k < kStreamMsgs; ++k) {
      check_send(stream_sends_[k]);
      check_recv(stream_recvs_[k], stream_buf(k), stream_payloads_[k]);
      stream_sends_[k] = {};
      stream_recvs_[k] = {};
    }
    stream_idx_ += kStreamMsgs;
    if (virt != nullptr) {
      virt->stream_ns += st_.virtual_now() - v0;
      virt->stream_msgs += kStreamMsgs;
    }
    count(kStreamMsgs, kStreamMsgs * kSmall);
    return static_cast<double>(t1 - t0);
  }

  /// kBulkMsgs one-way 1 MB messages against pre-posted receives. Returns
  /// the summed transfer host time (ns).
  double bulk(VirtRound* virt) {
    core::Session& a = st_.a();
    core::Session& b = st_.b();
    double total_ns = 0.0;
    for (int i = 0; i < kBulkMsgs; ++i) {
      const auto payload = pattern_.at(kBulkStream, bulk_idx_++, kBulk);
      // No poisoning: consecutive messages start at different pattern
      // offsets, so a stale buffer never matches.
      const auto rb = irecv(b, st_.gate_ba(), kTagBulk, b_buf_);
      const std::int64_t t0 = now_ns();
      const nmad::sim::TimeNs v0 = st_.virtual_now();
      const auto sa = isend(a, st_.gate_ab(), kTagBulk, payload);
      wait(b, rb);
      wait(a, sa);
      const std::int64_t t1 = now_ns();
      check_recv(rb, b_buf_, payload);
      check_send(sa);
      const auto ns = static_cast<double>(t1 - t0);
      total_ns += ns;
      if (record_) ph_.lat_ns.record(static_cast<std::uint64_t>(ns));
      round_lat_.push_back(ns / 1e3);
      virt->xfer_ns += rb->completion_time() - v0;
      virt->xfers += 1;
      count(1, kBulk);
    }
    return total_ns;
  }

  const WorkloadDef& def_;
  std::uint64_t seed_;
  Stack& st_;
  Phase& ph_;
  Pattern pattern_;
  std::vector<std::byte> a_buf_;
  std::vector<std::byte> b_buf_;
  std::vector<std::byte> stream_bufs_;
  std::vector<core::SendHandle> stream_sends_;
  std::vector<core::RecvHandle> stream_recvs_;
  std::vector<std::span<const std::byte>> stream_payloads_;
  std::vector<std::size_t> windows_;
  std::vector<double> round_lat_;    ///< this round's latency samples, us
  std::vector<double> round_small_;  ///< ... of the printed-only 8 B round trips
  std::uint64_t ping_idx_ = 0;
  std::uint64_t pong_idx_ = 0;
  std::uint64_t stream_idx_ = 0;
  std::uint64_t bulk_idx_ = 0;
  bool record_ = false;
};

/// Per-layer call and allocation counts at the end of the census rounds.
struct Census {
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::uint64_t, kLayerCount> allocs{};
  std::uint64_t msgs = 0;
};

Census take_census(Stack& st, std::uint64_t msgs) {
  // Progress threads touch their ledgers only inside spans, and every span
  // on a progress thread runs under the world mutex — which the burst scope
  // holds (it is a no-op on serial stacks).
  const auto quiesce = st.a().submission_burst();
  Census c;
  c.msgs = msgs;
  for (std::size_t i = 0; i < Tracer::ledger_count(); ++i) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      c.calls[l] += Tracer::ledger(i).totals(static_cast<Layer>(l)).calls;
      c.allocs[l] += Tracer::ledger(i).totals(static_cast<Layer>(l)).allocs;
    }
  }
  return c;
}

/// setup_s samples: extra stacks of the workload's shape, built (timed) and
/// torn down (untimed) between rounds — spread over the whole run, so they
/// sample the machine as the rounds do, at about 200 builds per run and at
/// most a tenth of its time.
class SetupSampler {
 public:
  SetupSampler(const StackSpec& spec, double run_seconds)
      : spec_(spec), gap_ns_(at_seconds(run_seconds / 200)) {}

  void maybe_build() {
    if (now_ns() < next_ns_) return;
    const std::int64_t t0 = now_ns();
    {
      const Stack st(spec_, false);
      builds_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    next_ns_ = now_ns() + std::max(gap_ns_, static_cast<std::int64_t>(builds_.back() * 1e10));
  }
  [[nodiscard]] const std::vector<double>& builds() const noexcept { return builds_; }

 private:
  const StackSpec& spec_;
  std::int64_t gap_ns_;
  std::int64_t next_ns_ = 0;
  std::vector<double> builds_;
};

/// Round-robin pinning of the calling thread over the CPUs the process may
/// use; the original affinity mask comes back when it goes out of scope.
struct CpuRotation {
  cpu_set_t allowed{};
  std::vector<int> cpus;

  CpuRotation() {
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  /// Pin the calling thread to the i-th allowed CPU (round robin).
  void pin(std::size_t i) const {
    if (cpus.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }
  ~CpuRotation() { (void)sched_setaffinity(0, sizeof(allowed), &allowed); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
};

/// Warm up, then run recorded rounds on `st` until `deadline_ns`, adding to
/// `ph`. A traced phase records spans for every recorded round and takes the
/// census after round kCensusRounds (so it plays at least one more).
void run_phase(const WorkloadDef& def, std::uint64_t seed, Stack& st, std::int64_t deadline_ns,
               Phase& ph, Census* census, SetupSampler* setups) {
  Traffic traffic(def, seed, st, ph);
  traffic.round(0);
  if (census != nullptr) {
    Tracer::here().app_thread = true;
    Tracer::start();
  }
  const double cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  const double app0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t t0 = now_ns();
  for (std::uint64_t r = 1;; ++r) {
    if (setups != nullptr) setups->maybe_build();
    const double round_cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    const std::uint64_t msgs0 = ph.msgs;
    traffic.round(r);
    ph.round_cpu_per_msg.push_back((cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - round_cpu0) /
                                   static_cast<double>(ph.msgs - msgs0));
    if (census != nullptr && r == kCensusRounds) *census = take_census(st, ph.msgs);
    if ((census == nullptr || r > kCensusRounds) && now_ns() >= deadline_ns) break;
  }
  ph.wall_ns += static_cast<double>(now_ns() - t0);
  ph.proc_cpu_ns += cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  ph.app_cpu_ns += cpu_ns(CLOCK_THREAD_CPUTIME_ID) - app0;
  if (census != nullptr) Tracer::stop();
}

/// Checks that end a phase: no request left behind, every rail healthy.
std::uint64_t final_checks(Stack& st) {
  std::uint64_t bad = 0;
  for (core::Session* s : {&st.a(), &st.b()}) {
    const auto quiesce = s->submission_burst();
    if (s->scheduler().pending_requests() != 0) {
      std::fprintf(stderr, "hostbench: FAILED %s has pending requests\n",
                   s->name().c_str());
      ++bad;
    }
  }
  if (const std::size_t n = st.unhealthy_rails(); n != 0) {
    std::fprintf(stderr, "hostbench: FAILED %zu rail(s) not healthy\n", n);
    bad += n;
  }
  return bad;
}

bool virt_guard(const WorkloadDef& def, const VirtRound& v) {
  bool ok = true;
  auto near = [&](const char* name, double got, double anchor) {
    const bool within = std::fabs(got - anchor) <= kAnchorTolerance * anchor;
    std::printf("virt %s = %.6g (anchor %.6g, %s)\n", name, got, anchor,
                within ? "ok" : "MOVED");
    ok = ok && within;
  };
  if (def.id == Workload::kSim8B) {
    near("virt_rtt_8B_us", v.rtt_us(), kAnchorVirtRttUs);
    near("virt_ns_per_msg_8B", v.deep_ns_per_msg(), kAnchorVirtNsPerMsg);
    std::printf("virt stream of seeded windows = %.6g ns/msg\n", v.ns_per_msg());
  } else if (def.id == Workload::kSim1MB) {
    near("virt_goodput_1MB_MBps", v.goodput_MBps(), kAnchorVirtGoodputMBps);
  }
  return ok;
}

/// A percentile as printed, times `scale`: "n/a" when it breaks the
/// percentile rule.
std::string shown(const Percentile& p, double scale = 1.0) {
  if (!p.supported()) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", p.value * scale);
  return buf;
}

/// Figures printed but not gated, under the workload-specific names the
/// README's metric table maps the gated ones to. The tails, the CPU figure
/// and the peak RSS repeat too poorly on a shared machine to carry a bound.
void print_diagnostics(const WorkloadDef& def, const Phase& ph,
                       const std::vector<Metric>& m) {
  const double lat50 = m[1].value;
  const double goodput = m[2].value;
  const std::string lat99 = shown(ph.lat_ns.percentile(0.99), 1e-3);
  switch (def.id) {
    case Workload::kSim8B:
    case Workload::kSim8BThreaded:
      std::printf("  rtt_8B_p50_us %.6g us, rtt_8B_p99_us %s us, rate_8B_kmsgs %.6g "
                  "kmsg/s\n", lat50, lat99.c_str(), goodput * 1e3 / kSmall);
      break;
    case Workload::kSim1MB:
      std::printf("  goodput_1MB_MBps %.6g MB/s, xfer_1MB_p99_us %s us\n", goodput,
                  lat99.c_str());
      break;
    case Workload::kTcp:
      std::printf("  rtt_64KB_p50_us %.6g us, rtt_64KB_p99_us %s us, rtt_8B_p50_us %s "
                  "us, rtt_8B_p99_us %s us\n",
                  lat50, lat99.c_str(), shown(favourable_low(ph.round_small_p50)).c_str(),
                  shown(ph.small_ns.percentile(0.99), 1e-3).c_str());
      break;
  }
  std::printf("  cpu_ns_per_msg %s ns/msg (process CPU, all threads, per round)\n",
              shown(favourable_low(ph.round_cpu_per_msg)).c_str());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("  rss_peak_mb %.6g MB\n", static_cast<double>(ru.ru_maxrss) / 1024.0);
}

/// A gated end-to-end metric read off a percentile.
Metric from_percentile(const char* name, const Percentile& p, const char* unit) {
  return {name, p.value, unit, "", p.supported()};
}

void print_metric(const Metric& m) {
  std::printf("  %-36s %14.6g %-10s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.base.empty() ? "" : " per ", m.base.c_str());
}

struct Args {
  const WorkloadDef* def = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadDef& d : kWorkloads) {
        if (val == d.name) args.def = &d;
      }
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--trace-out") {
      args.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args.def != nullptr && args.seconds > 0.0;
}

int run(const Args& args) {
  const WorkloadDef& def = *args.def;
  const bool serial_sim = def.spec.transport == Transport::kSim && !def.spec.threaded;
  std::printf("hostbench workload=%s seed=%llu seconds=%g trace=%d\n", def.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  if (!args.trace) {
    SetupSampler setups(def.spec, args.seconds);
    Phase ph;
    // Threaded stacks are not pinned: their progress threads would inherit
    // the single CPU.
    const CpuRotation rotation;
    const std::int64_t start = now_ns();
    for (int i = 0; i < kStacks; ++i) {
      if (!def.spec.threaded) rotation.pin(static_cast<std::size_t>(i));
      Stack st(def.spec, false);
      run_phase(def, args.seed, st, start + at_seconds(args.seconds * (i + 1) / kStacks), ph,
                nullptr, &setups);
      failed += final_checks(st);
    }
    std::vector<double> builds = setups.builds();
    metrics = {
        from_percentile("setup_s", percentile(builds, 0.5), "s"),
        from_percentile("lat_p50_us", favourable_low(ph.round_lat_p50), "us"),
        from_percentile("goodput_MBps", favourable_high(ph.round_goodput), "MB/s"),
    };
    if (ph.unsupported != 0) {
      std::fprintf(stderr, "hostbench: FAILED %llu round medians break the percentile "
                   "rule\n", static_cast<unsigned long long>(ph.unsupported));
      correct = false;
    }
    std::printf("setup: %zu builds\n", builds.size());
    std::printf("measured: %llu rounds on %d stacks, %llu messages in %.3f s; lat = %s: "
                "%llu samples\n",
                static_cast<unsigned long long>(ph.rounds), kStacks,
                static_cast<unsigned long long>(ph.msgs), ph.wall_ns / 1e9, def.lat_op,
                static_cast<unsigned long long>(ph.lat_ns.count()));
    print_diagnostics(def, ph, metrics);
    if (serial_sim) correct = virt_guard(def, ph.virt) && correct;
    attempted = ph.requests;
    failed += ph.failures;
  } else {
    // Untraced reference: the trace overhead's denominator and the
    // virtual-time guard's reference.
    Phase ref;
    {
      Stack st(def.spec, false);
      run_phase(def, args.seed, st, now_ns() + at_seconds(args.seconds / 3.0), ref, nullptr,
                nullptr);
      failed += final_checks(st);
    }
    auto in = std::make_unique<LayerInputs>();
    Phase ph;
    Census census;
    {
      Stack st(def.spec, true);
      const auto [miss0, acq0] = st.pool_counts();
      const std::uint64_t events0 = st.events_fired();
      run_phase(def, args.seed, st, now_ns() + at_seconds(args.seconds * 2.0 / 3.0), ph,
                &census, nullptr);
      const auto [miss1, acq1] = st.pool_counts();
      in->pool_misses = miss1 - miss0;
      in->pool_acquires = acq1 - acq0;
      in->events = st.events_fired() - events0;
      in->progress_stalls = st.progress_stalls();
      in->sampling_s = st.sampling_s();
      failed += final_checks(st);
      st.stop_threads();
      in->counts = st.counts();
    }
    for (std::size_t i = 0; i < Tracer::ledger_count(); ++i) {
      const ThreadLedger& led = Tracer::ledger(i);
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        in->totals[l].merge(led.totals(static_cast<Layer>(l)));
      }
      (led.app_thread ? in->app_self_ns : in->progress_self_ns) +=
          static_cast<double>(led.self_ns_total());
      if (led.app_thread) {
        for (Layer l : kCatchAllLayers) {
          in->app_catchall_ns += static_cast<double>(led.totals(l).self_ns);
        }
      }
    }
    in->msgs = ph.msgs;
    in->census_msgs = census.msgs;
    in->census_calls = census.calls;
    in->census_allocs = census.allocs;
    in->payload_bytes = ph.payload_bytes;
    in->proc_cpu_ns = ph.proc_cpu_ns;
    in->app_cpu_ns = ph.app_cpu_ns;
    in->traced_wall_ns = ph.wall_ns;
    in->traced_ns_per_msg = ratio(ph.wall_ns, static_cast<double>(ph.msgs));
    in->untraced_ns_per_msg = ratio(ref.wall_ns, static_cast<double>(ref.msgs));
    metrics = per_layer_metrics(*in);

    std::printf("traced: %llu rounds, %llu messages in %.3f s (census: %llu messages); "
                "untraced reference: %llu messages in %.3f s\n",
                static_cast<unsigned long long>(ph.rounds),
                static_cast<unsigned long long>(ph.msgs), ph.wall_ns / 1e9,
                static_cast<unsigned long long>(census.msgs),
                static_cast<unsigned long long>(ref.msgs), ref.wall_ns / 1e9);
    const double unattributed = unattributed_frac(*in);
    if (unattributed > kMaxUnattributed) {
      std::fprintf(stderr, "hostbench: FAILED spans leave %.1f%% of wall time "
                   "unattributed (limit %.0f%%)\n", unattributed * 100,
                   kMaxUnattributed * 100);
      correct = false;
    }
    if (serial_sim) {
      correct = virt_guard(def, ph.virt) && correct;
      if (!(ph.virt == ref.virt)) {
        std::fprintf(stderr, "hostbench: FAILED tracing changed the virtual timeline\n");
        correct = false;
      }
    }
    if (!args.trace_out.empty()) {
      if (Tracer::write_chrome_trace(args.trace_out)) {
        std::printf("chrome trace: %s (%llu spans not kept)\n", args.trace_out.c_str(),
                    static_cast<unsigned long long>(Tracer::dropped_events()));
      } else {
        std::fprintf(stderr, "hostbench: cannot write %s\n", args.trace_out.c_str());
      }
    }
    attempted = ref.requests + ph.requests;
    failed += ref.failures + ph.failures;
  }

  std::printf("%s metrics (%s):\n", args.trace ? "per-layer" : "end-to-end", def.name);
  for (const Metric& m : metrics) {
    print_metric(m);
    if (!std::isfinite(m.value)) correct = false;
    if (!m.supported) {
      std::fprintf(stderr, "hostbench: FAILED %s breaks the percentile rule (fewer than "
                   "%zu samples beyond it)\n", m.name.c_str(), kMinBeyond);
      correct = false;
    }
  }
  std::printf("ops_failed_frac %.6g (failed or mismatched requests / %llu attempted)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(attempted));
  correct = correct && failed == 0 && attempted > 0;
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  hostbench::Args args;
  if (!hostbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload <sim_8B|sim_1MB_striped|tcp_pingpong|"
                 "sim_8B_threaded> --seed N --seconds S --trace 0|1 [--trace-out F]\n");
    return 2;
  }
  try {
    return hostbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 2;
  }
}
