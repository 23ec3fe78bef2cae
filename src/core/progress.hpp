// Threaded progression: one progress thread per world drives the
// schedulers so the application thread never enters them (paper §2 —
// request processing is disconnected from the API calls; here even the
// *driving* of that processing leaves the application thread). The design,
// the diagram and the lost-wakeup argument are in docs/ARCHITECTURE.md
// "Threaded progression".
//
// Every session that passes the same world mutex to Session::start_threaded
// attaches to one ProgressWorld (a registry keyed by that mutex, private to
// progress.cpp): one thread, a work doorbell and a completion doorbell. Each
// round, under the world mutex, the thread drains the non-empty submission
// lanes of every attached session, steps the sim engine in a batch, and runs
// the sessions' idle hooks when nothing moved; after a round that moved
// nothing it parks on the work doorbell. A submit (after its ring push),
// every sim::Engine schedule (the engine's wake hook) and detach ring it.
// Waiters park on the completion doorbell, rung when requests settle;
// completion itself is read from Request::done().
//
// Each submitting application thread owns one SPSC submission ring (lane)
// per session, so submission is wait-free across threads. Backpressure is
// lossless: a full ring makes the submitter spin with escalating backoff
// (counted in submission_stalls()).
//
// The scheduler, strategies and gates stay single-threaded code: every
// entry into them happens with the world progress mutex held.
//
// Mode selection: ProgressMode::kDefault resolves the NMAD_PROGRESS_MODE
// environment variable ("serial" | "threaded"); an explicit kSerial or
// kThreaded wins, which lets tests that depend on serial determinism pin
// themselves while the rest of the suite follows the environment.
//
// Threaded mode needs a sim engine: a socket has no ring point until a
// readiness doorbell (e.g. epoll) exists, so TcpDriver sessions stay serial.
//
// Shutdown order: every session sharing a sim engine must be
// stop_threaded() before ANY of them is destroyed — engine events cross
// sessions. TwoNodePlatform handles this in its destructor.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/request.hpp"
#include "core/scheduler.hpp"
#include "core/spsc_ring.hpp"

namespace nmad::sim {
class Engine;
}  // namespace nmad::sim

namespace nmad::core {

enum class ProgressMode : std::uint8_t {
  kDefault,   ///< resolve NMAD_PROGRESS_MODE, fall back to serial
  kSerial,    ///< classic single-threaded progression (bit-reproducible)
  kThreaded,  ///< one progress thread per world + per-thread submission lanes
};

/// NMAD_PROGRESS_MODE environment override: "threaded" | "serial" (anything
/// else, or unset, is kDefault).
[[nodiscard]] ProgressMode progress_mode_from_env();

/// kDefault -> environment -> kSerial; explicit modes pass through.
[[nodiscard]] ProgressMode resolve_progress_mode(ProgressMode requested);

[[nodiscard]] const char* to_string(ProgressMode mode);

/// Resolve the submission-ring capacity knob (NMAD_SUBMIT_RING_CAP):
/// unset, zero or unparsable -> `fallback`. Values are rounded up to
/// powers of two by the ring itself.
[[nodiscard]] std::size_t ring_capacity_from_env(const char* var,
                                                 std::size_t fallback);

/// Hard cap on submitting application threads per session — lanes live in
/// a fixed array so the progress thread can index them without a lock. 64
/// app threads per session is far beyond any supported deployment;
/// exceeding it panics loudly rather than serializing silently.
inline constexpr std::size_t kMaxSubmitLanes = 64;

/// Spin-loop hint to the CPU (x86 `pause`, arm `yield`).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Park/ring primitive. A ring is one seq_cst fence plus one load of the
/// sleeper count, on a line only parkers write; it takes the mutex only when
/// someone is registered. park() first polls `ready` for kSpin (a thread
/// woken from a futex on a shared VM needs tens of microseconds to run),
/// then registers, fences and re-checks `ready` before it blocks. With both
/// fences seq_cst, either the ringer sees the sleeper or the re-check sees
/// the ringer's published state, so no ring is lost.
class Doorbell {
 public:
  using Clock = std::chrono::steady_clock;
  /// How long park() polls its condition before blocking.
  static constexpr std::chrono::microseconds kSpin{20};

  /// Call after publishing the state a sleeper waits for.
  void ring() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    cv_.notify_all();
  }

  /// Return once `ready()` holds, a ring() arrives or `deadline` passes
  /// (Clock::time_point::max() = no deadline): poll `ready` for up to
  /// kSpin, then block. `ready` runs without any doorbell lock held.
  template <typename Ready>
  void park(Ready&& ready, Clock::time_point deadline) {
    const Clock::time_point spin_until =
        std::min(deadline, Clock::now() + kSpin);
    do {
      if (ready()) return;
      cpu_relax();
    } while (Clock::now() < spin_until);
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seen = epoch_;
    lock.unlock();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!ready()) {
      lock.lock();
      auto rung = [&] { return epoch_ != seen; };
      if (deadline == Clock::time_point::max()) {
        cv_.wait(lock, rung);
      } else {
        cv_.wait_until(lock, deadline, rung);
      }
      lock.unlock();
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  /// Read by every ring, written only by parking threads.
  alignas(kCacheLineSize) std::atomic<std::uint32_t> sleepers_{0};
  alignas(kCacheLineSize) std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_ = 0;  ///< guarded by mu_
};

class ProgressWorld;

class ProgressEngine {
 public:
  struct Config {
    /// Per-lane submission-ring capacity (rounded up to a power of two).
    /// Overridable via NMAD_SUBMIT_RING_CAP when the caller leaves it at
    /// the default (see ring_capacity_from_env).
    std::size_t submission_capacity = 1024;
  };

  struct Hooks {
    /// World progress mutex (required): serializes every scheduler entry
    /// and every engine step across all sessions of the world, and keys
    /// the shared ProgressWorld.
    std::mutex* lock = nullptr;
    /// Discrete-event engine the world thread steps (required; every
    /// session of one world must pass the same engine).
    sim::Engine* engine = nullptr;
    /// Called under the lock when a full round made no progress (e.g. the
    /// chaos harness flushes its buffered frames here).
    std::function<void()> idle;
  };

  /// Installs itself as `scheduler`'s completion hook and attaches to the
  /// world's progress thread (starting it if this is the first session).
  /// Gates may still be added afterwards (lazy session establishment) as
  /// long as the connect happens under the world progress mutex — gate
  /// storage is pointer-stable, so the running thread never observes a
  /// torn gate table.
  ProgressEngine(Scheduler& scheduler, Config config, Hooks hooks);
  /// stop()s.
  ~ProgressEngine();
  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  /// Detach from the world (idempotent) and remove the completion hook;
  /// the last session to detach joins the world thread. Afterwards the
  /// owning Session falls back to serial entry points.
  void stop();

  // --- application-thread interface ---------------------------------------
  /// Enqueue a made request for submission on the calling thread's lane
  /// (registered on first use) and ring the world thread. Wait-free across
  /// threads on the fast path; spins with escalating backoff while the
  /// lane's ring is full — lossless backpressure, counted in
  /// submission_stalls().
  void submit(SendHandle h);
  void submit(RecvHandle h);

  /// Block until pred() holds, parked on the world's completion doorbell
  /// while the progress thread does the work. Panics if the world stays
  /// quiet (engine idle, every lane drained) for longer than 5 s with pred
  /// still false.
  void wait(const std::function<bool()>& pred);

  /// Park on the world's completion doorbell until a request of the world
  /// settles, `ready()` holds, or `budget` elapses — whichever comes
  /// first. One slice of a caller-owned wait loop (coll::wait_all).
  void park(const std::function<bool()>& ready,
            std::chrono::milliseconds budget);

  /// Pause the progress thread for a burst of submissions: while the
  /// returned lock is held it can drain no lane and step no event, so
  /// every request pushed lands in ONE strategy optimization window — the
  /// serial semantics, where the engine only runs inside wait(). The lock
  /// is the WORLD mutex: bursts taken on different sessions of the same
  /// world exclude each other (and all progress), so two app threads
  /// holding "different sessions' bursts" are really serialized on one
  /// lock — see Session::submission_burst(). Other threads may keep
  /// submitting on their own lanes while a burst is held (their pushes
  /// land in the same frozen window). Never wait() while holding it, and
  /// never push more requests per lane than the lane's ring capacity (the
  /// drain side is blocked).
  [[nodiscard]] std::unique_lock<std::mutex> pause() {
    return std::unique_lock<std::mutex>(*hooks_.lock);
  }

  /// Drain every lane's submission ring from the calling thread (takes the
  /// world lock): on return every request submit()ed — by ANY thread —
  /// before the call has reached the scheduler. Lets an application
  /// sequence cross-session submissions deterministically (e.g. guarantee
  /// receives are in the matching table before the peer's sends are
  /// released). Requests pushed concurrently with the call may or may not
  /// be included.
  void flush_submissions();

  // --- counters (ground truth, live even with NMAD_METRICS=OFF — gates in
  // tests and benches read these) -----------------------------------------
  /// Submission pushes that found the lane ring full and had to spin.
  [[nodiscard]] std::uint64_t submission_stalls() const noexcept {
    return submission_stalls_.load(std::memory_order_relaxed);
  }
  /// Always 0: there are no completion rings to stall on. Kept so callers
  /// that sum both stall kinds still compile.
  [[nodiscard]] static constexpr std::uint64_t completion_stalls() noexcept {
    return 0;
  }
  /// Requests of this session settled (completed or failed) while attached.
  [[nodiscard]] std::uint64_t completions() const noexcept {
    return completions_.load(std::memory_order_relaxed);
  }
  /// Progress threads serving this session: the world's one thread while
  /// attached, 0 after stop().
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return world_ != nullptr ? 1 : 0;
  }

  /// Register the engine's counters into `registry` under `prefix`
  /// (e.g. "a.progress."). Ground-truth atomics, so they register and
  /// report even when obs counters are compiled out.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix);

 private:
  friend class ProgressWorld;

  /// Exactly one handle set. Default-constructed (both null) marks a
  /// moved-from ring slot.
  struct SubmitOp {
    SendHandle send;
    RecvHandle recv;
  };

  /// Pop up to kDrainChunk ops per non-empty lane into the scheduler
  /// (under the world lock). Returns true if any op moved.
  bool drain_submissions();
  void push_submission(SpscRing<SubmitOp>& lane, SubmitOp op);
  /// The calling thread's lane slot, registering a new lane on first use.
  [[nodiscard]] std::uint32_t caller_slot();
  /// All lanes' submission rings empty and no op between pop and submit.
  [[nodiscard]] bool submissions_idle() const;

  Scheduler& scheduler_;
  Config cfg_;
  Hooks hooks_;
  /// The shared per-world thread and doorbells; null once stopped.
  ProgressWorld* world_ = nullptr;

  /// Engine identity for the thread-local lane cache (never reused, so a
  /// stale cache entry can never alias a new engine).
  const std::uint64_t engine_id_;
  /// Lane registry: one submission ring per submitting thread. The map
  /// (under lanes_mu_) is authoritative for thread -> slot; the fixed array
  /// + release-published count let the progress thread iterate lanes
  /// without taking the mutex.
  mutable std::mutex lanes_mu_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_by_thread_;
  std::array<std::unique_ptr<SpscRing<SubmitOp>>, kMaxSubmitLanes> lanes_;
  std::atomic<std::uint32_t> lane_count_{0};

  std::atomic<std::uint64_t> submission_stalls_{0};
  std::atomic<std::uint64_t> completions_{0};
  /// Ops popped from a submission ring but not yet handed to the
  /// scheduler; keeps the wait() watchdog from sampling a mid-drain
  /// instant as global quiescence.
  std::atomic<std::uint64_t> inflight_submissions_{0};
};

}  // namespace nmad::core
