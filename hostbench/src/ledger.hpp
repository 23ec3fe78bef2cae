// Span ledger: the host-cost accounting behind the traced run.
//
// Every layer boundary the benchmark can reach from outside the library
// (Session calls, the strategy, the driver, the deferred/progress/timer
// hooks) opens a Span. Each thread keeps its own stack of open spans, so a
// span's *self* time is its duration minus the durations of the spans it
// directly encloses, on the same thread. Re-entrant nesting (a pump that
// packs, posts, and is delivered into before it returns) needs nothing
// special: each instance is a separate stack frame.
//
// Heap allocations are charged to the innermost open span of the thread
// that made them (see alloc_hook.cpp); allocations the tracer itself makes
// while wrapping callbacks run inside an InternalScope and are not charged.
//
// Nothing here runs unless recording is on: the untraced run installs no
// decorators, and the traced run switches recording on only for its
// measured rounds.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "stats.hpp"

namespace hostbench {

enum class Layer : std::uint8_t {
  kCollect,       ///< Session::isend / irecv
  kStratSubmit,   ///< Strategy::on_submit_* / on_rdv_granted
  kStratPack,     ///< Strategy::try_pack
  kCorePump,      ///< deferred scheduler work (DeferFn callbacks)
  kCoreSent,      ///< the driver's send-completion callback
  kCoreTimer,     ///< TimerFn callbacks (retransmit / delayed-ack timers)
  kRx,            ///< the driver's DeliverFn upcall
  kDrvPost,       ///< Driver::post_send
  kDrvPoll,       ///< Driver::progress
  kSimEngine,     ///< ProgressFn over the simulator (Engine::run_until)
  kRealProgress,  ///< ProgressFn over real drivers (RealWorld::progress_until)
  kWait,          ///< Session::wait / wait_all
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerTotals {
  std::uint64_t self_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;
  LogHistogram self_hist;

  void merge(const LayerTotals& other);
};

/// One thread's span stack and per-layer totals. Only its own thread writes
/// it; readers wait until that thread is joined or quiescent.
class ThreadLedger {
 public:
  static constexpr std::size_t kMaxDepth = 64;

  void begin(Layer layer, std::int64_t t) noexcept;
  /// Closes the innermost span; returns its duration (ns).
  std::int64_t end(std::int64_t t) noexcept;
  /// Charge one heap allocation to the innermost open span (none open:
  /// the benchmark's own code, not counted).
  void note_alloc() noexcept;

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] const LayerTotals& totals(Layer l) const noexcept {
    return totals_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t self_ns_total() const noexcept;
  void reset() noexcept;

  /// Set by the thread that drives the workload (the application thread);
  /// every other ledger belongs to a progress thread.
  bool app_thread = false;
  /// Chrome-trace thread id (the ledger's slot).
  std::uint32_t slot = 0;

 private:
  struct Frame {
    Layer layer = Layer::kCollect;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::uint64_t allocs = 0;
  };
  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::array<LayerTotals, kLayerCount> totals_{};
};

/// Process-wide recording switch and ledger registry.
class Tracer {
 public:
  static constexpr std::size_t kMaxThreads = 16;

  [[nodiscard]] static bool recording() noexcept {
    return recording_.load(std::memory_order_acquire);
  }
  /// Zero every ledger and the event buffer, then switch recording on.
  /// Call only while no other thread holds an open span.
  static void start();
  static void stop() noexcept { recording_.store(false, std::memory_order_release); }

  /// The calling thread's ledger, registered on first use.
  [[nodiscard]] static ThreadLedger& here();

  /// Ledgers registered so far (read after the recording threads quiesce).
  [[nodiscard]] static std::size_t ledger_count() noexcept;
  [[nodiscard]] static const ThreadLedger& ledger(std::size_t i) noexcept;

  /// Finished spans kept for the chrome://tracing export (the first
  /// kMaxEvents of a recording; later ones are counted, not kept).
  static void keep_event(std::uint32_t slot, Layer layer, std::int64_t start,
                         std::int64_t dur) noexcept;
  [[nodiscard]] static std::uint64_t dropped_events() noexcept;
  /// Write the kept spans as a chrome://tracing JSON file.
  static bool write_chrome_trace(const std::string& path);

 private:
  static std::atomic<bool> recording_;
};

/// RAII span: a no-op unless recording is on when it opens.
class Span {
 public:
  explicit Span(Layer layer) noexcept {
    if (Tracer::recording()) {
      ledger_ = &Tracer::here();
      ledger_->begin(layer, now_ns());
    }
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->end(now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadLedger* ledger_ = nullptr;
};

/// Allocations made while an InternalScope is open on a thread are the
/// tracer's own (callback wrappers), not the library's: they are counted in
/// no span.
class InternalScope {
 public:
  InternalScope() noexcept;
  ~InternalScope();
  InternalScope(const InternalScope&) = delete;
  InternalScope& operator=(const InternalScope&) = delete;
};

/// Called by the replaced global operator new.
void note_alloc() noexcept;

}  // namespace hostbench
