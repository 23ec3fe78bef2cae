#include "core/progress.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"
#include "util/panic.hpp"

namespace nmad::core {

namespace {

/// Monotonic engine identity — never reused, so a thread-local cache entry
/// for a destroyed engine can never alias a live one (even if the new
/// engine reuses the old one's heap address).
std::atomic<std::uint64_t> g_engine_ids{1};

/// Process-wide submitting-thread identity (std::thread::id is not usable
/// as a cheap map key across implementations).
std::atomic<std::uint64_t> g_thread_ids{1};

std::uint64_t this_thread_id() {
  thread_local std::uint64_t id = 0;
  if (id == 0) id = g_thread_ids.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Thread-local memo of this thread's lane slot per engine: the fast path
/// of submit() resolves the lane without touching the
/// engine's registration mutex. Misses (cold thread, evicted entry) fall
/// back to the authoritative map, which always returns the SAME slot for
/// the same thread — an eviction can never split one thread's stream
/// across two lanes.
struct LaneCacheEntry {
  std::uint64_t engine_id = 0;  ///< 0 = empty
  std::uint32_t slot = 0;
};
constexpr std::size_t kLaneCacheSize = 8;
thread_local std::array<LaneCacheEntry, kLaneCacheSize> tls_lane_cache{};
thread_local std::uint32_t tls_lane_cache_clock = 0;

/// Max submissions popped per lane per drain round — bounds the world mutex
/// hold time while keeping the round-robin fair across lanes.
constexpr std::size_t kDrainChunk = 256;

/// wait() panics after the world stays quiet this long (engine idle, all
/// submission rings empty) with its predicate still false: an application
/// deadlock. The serial equivalent is run_until() draining the queue.
constexpr std::chrono::milliseconds kStallTimeout{5000};

}  // namespace

ProgressMode progress_mode_from_env() {
  const char* v = std::getenv("NMAD_PROGRESS_MODE");
  if (v == nullptr) return ProgressMode::kDefault;
  if (std::strcmp(v, "threaded") == 0) return ProgressMode::kThreaded;
  if (std::strcmp(v, "serial") == 0) return ProgressMode::kSerial;
  NMAD_LOG_WARN("core", "NMAD_PROGRESS_MODE=%s not recognized, using serial", v);
  return ProgressMode::kDefault;
}

ProgressMode resolve_progress_mode(ProgressMode requested) {
  if (requested != ProgressMode::kDefault) return requested;
  const ProgressMode env = progress_mode_from_env();
  return env == ProgressMode::kDefault ? ProgressMode::kSerial : env;
}

std::size_t ring_capacity_from_env(const char* var, std::size_t fallback) {
  const char* v = std::getenv(var);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || parsed == 0) {
    NMAD_LOG_WARN("core", "%s=%s not a positive integer, using %zu", var, v,
                  fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

const char* to_string(ProgressMode mode) {
  switch (mode) {
    case ProgressMode::kDefault:
      return "default";
    case ProgressMode::kSerial:
      return "serial";
    case ProgressMode::kThreaded:
      return "threaded";
  }
  NMAD_PANIC("bad ProgressMode");
}

namespace {
/// The world whose progress thread is the calling thread, if any.
thread_local ProgressWorld* tls_world = nullptr;
}  // namespace

/// The one progress thread of a world, plus its doorbells and the sessions
/// attached to it. Found through a registry keyed by the world mutex: the
/// sim world itself cannot own it (drv/ sits below core/), and sessions are
/// switched to threaded mode one at a time through Session::start_threaded.
class ProgressWorld {
 public:
  /// Max engine events fired per lock acquisition — bounds how long the
  /// thread holds the world mutex before a burst gets a turn.
  static constexpr std::size_t kEngineBatch = 64;

  ProgressWorld(std::mutex& lock, sim::Engine& engine)
      : lock_(lock), engine_(engine) {
    {
      std::lock_guard<std::mutex> guard(lock_);
      // The world thread never needs waking by its own events.
      engine_.set_wake_hook([this] {
        if (tls_world != this) work.ring();
      });
    }
    thread_ = std::thread([this] { run(); });
  }

  ~ProgressWorld() {
    stop_.store(true, std::memory_order_relaxed);
    work.ring();
    thread_.join();
    std::lock_guard<std::mutex> guard(lock_);
    engine_.set_wake_hook(nullptr);
  }
  ProgressWorld(const ProgressWorld&) = delete;
  ProgressWorld& operator=(const ProgressWorld&) = delete;

  /// Attach `session` to the world of its hooks' mutex, creating the world
  /// (and its thread) on first use.
  static ProgressWorld* attach(ProgressEngine& session);
  /// Detach `session`; the last session of a world joins its thread.
  static void detach(ProgressEngine& session);

  /// Engine idle, every attached lane empty and nothing between pop and
  /// submit: the wait() watchdog's quiet sample and the park re-check.
  [[nodiscard]] bool quiet() const {
    std::lock_guard<std::mutex> guard(sessions_mu_);
    if (!engine_.idle()) return false;
    return std::all_of(sessions_.begin(), sessions_.end(),
                       [](const ProgressEngine* s) {
                         return s->submissions_idle();
                       });
  }

  Doorbell work;  ///< the world thread parks here
  Doorbell done;  ///< waiters park here; rung on every settled request

 private:
  void run();

  std::mutex& lock_;
  sim::Engine& engine_;
  /// Attached sessions. Mutated under BOTH the world lock and sessions_mu_:
  /// rounds iterate under the world lock, quiet() under sessions_mu_.
  mutable std::mutex sessions_mu_;
  std::vector<ProgressEngine*> sessions_;
  /// A request settled during the current round (world thread only).
  bool settled_ = false;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

namespace {
/// The world registry, keyed by world mutex.
std::mutex g_worlds_mu;
std::unordered_map<std::mutex*, std::unique_ptr<ProgressWorld>> g_worlds;
}  // namespace

ProgressWorld* ProgressWorld::attach(ProgressEngine& session) {
  std::lock_guard<std::mutex> reg_guard(g_worlds_mu);
  std::unique_ptr<ProgressWorld>& slot = g_worlds[session.hooks_.lock];
  if (slot == nullptr) {
    slot = std::make_unique<ProgressWorld>(*session.hooks_.lock,
                                           *session.hooks_.engine);
  }
  ProgressWorld* world = slot.get();
  NMAD_ASSERT(&world->engine_ == session.hooks_.engine,
              "every session of one world must share its sim engine");
  {
    std::lock_guard<std::mutex> guard(world->lock_);
    // Installed under the world lock: the world thread may already be
    // firing engine events into this scheduler for other sessions.
    session.scheduler_.set_completion_hook(
        [&session, world] {
          session.completions_.fetch_add(1, std::memory_order_relaxed);
          // On the world thread, ring once at the end of the round.
          if (tls_world == world) {
            world->settled_ = true;
          } else {
            world->done.ring();
          }
        });
    std::lock_guard<std::mutex> sessions_guard(world->sessions_mu_);
    world->sessions_.push_back(&session);
  }
  return world;
}

void ProgressWorld::detach(ProgressEngine& session) {
  ProgressWorld* world = session.world_;
  session.world_ = nullptr;
  std::lock_guard<std::mutex> reg_guard(g_worlds_mu);
  {
    std::lock_guard<std::mutex> guard(world->lock_);
    // Hand anything still queued to the scheduler rather than drop it; the
    // session's serial entry points progress it from here on.
    while (session.drain_submissions()) {
    }
    session.scheduler_.set_completion_hook(nullptr);
    std::lock_guard<std::mutex> sessions_guard(world->sessions_mu_);
    std::erase(world->sessions_, &session);
    if (!world->sessions_.empty()) return;
  }
  // Joined under the registry mutex, so a session attaching to the same
  // mutex meanwhile starts a fresh world only after this one is gone.
  g_worlds.erase(session.hooks_.lock);
}

void ProgressWorld::run() {
  auto has_work = [this] {
    return stop_.load(std::memory_order_relaxed) || !quiet();
  };
  tls_world = this;
  while (true) {
    bool moved = false;
    {
      // Blocking: a submission_burst() holder hands the lock straight over
      // when it releases.
      std::lock_guard<std::mutex> guard(lock_);
      if (stop_.load(std::memory_order_relaxed)) return;
      for (ProgressEngine* s : sessions_) moved |= s->drain_submissions();
      for (std::size_t i = 0; i < kEngineBatch && engine_.step(); ++i) {
        moved = true;
      }
      if (!moved) {
        for (ProgressEngine* s : sessions_) {
          if (s->hooks_.idle) s->hooks_.idle();
        }
      }
    }
    if (settled_) {
      settled_ = false;
      done.ring();
    }
    // Park only after a whole round moved nothing; the re-check inside
    // park() catches work an idle hook or a racing submit just created.
    if (!moved) work.park(has_work, Doorbell::Clock::time_point::max());
  }
}

ProgressEngine::ProgressEngine(Scheduler& scheduler, Config config, Hooks hooks)
    : scheduler_(scheduler),
      cfg_(config),
      hooks_(std::move(hooks)),
      engine_id_(g_engine_ids.fetch_add(1, std::memory_order_relaxed)) {
  NMAD_ASSERT(hooks_.lock != nullptr, "ProgressEngine needs a progress mutex");
  NMAD_ASSERT(hooks_.engine != nullptr,
              "threaded progression needs a sim engine to step");
  world_ = ProgressWorld::attach(*this);
}

ProgressEngine::~ProgressEngine() { stop(); }

void ProgressEngine::stop() {
  if (world_ != nullptr) ProgressWorld::detach(*this);
}

std::uint32_t ProgressEngine::caller_slot() {
  for (const LaneCacheEntry& e : tls_lane_cache) {
    if (e.engine_id == engine_id_) return e.slot;
  }
  const std::uint64_t tid = this_thread_id();
  std::uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    auto it = slot_by_thread_.find(tid);
    if (it != slot_by_thread_.end()) {
      slot = it->second;
    } else {
      slot = lane_count_.load(std::memory_order_relaxed);
      NMAD_ASSERT(slot < kMaxSubmitLanes,
                  "too many submitting threads for one progress engine "
                  "(kMaxSubmitLanes)");
      lanes_[slot] =
          std::make_unique<SpscRing<SubmitOp>>(cfg_.submission_capacity);
      slot_by_thread_.emplace(tid, slot);
      // Release-publish the lane AFTER its construction so the progress
      // thread, which acquires lane_count_, sees a fully built ring.
      lane_count_.store(slot + 1, std::memory_order_release);
    }
  }
  // Memoize: prefer an empty cache entry, else evict round-robin.
  for (LaneCacheEntry& e : tls_lane_cache) {
    if (e.engine_id == 0) {
      e = LaneCacheEntry{engine_id_, slot};
      return slot;
    }
  }
  tls_lane_cache[tls_lane_cache_clock++ % kLaneCacheSize] =
      LaneCacheEntry{engine_id_, slot};
  return slot;
}

void ProgressEngine::push_submission(SpscRing<SubmitOp>& lane, SubmitOp op) {
  // Backpressure: the ring is bounded, so a submission burst faster than
  // the progression can drain simply slows the application thread down to
  // the drain rate. Lossless — spins forever rather than dropping.
  const bool pushed = spsc_push_backoff(
      lane, std::move(op), ~std::uint64_t{0}, [this] {
        submission_stalls_.fetch_add(1, std::memory_order_relaxed);
      });
  NMAD_ASSERT(pushed, "unbounded submission push returned");
  world_->work.ring();
}

void ProgressEngine::submit(SendHandle h) {
  SubmitOp op;
  op.send = std::move(h);
  push_submission(*lanes_[caller_slot()], std::move(op));
}

void ProgressEngine::submit(RecvHandle h) {
  SubmitOp op;
  op.recv = std::move(h);
  push_submission(*lanes_[caller_slot()], std::move(op));
}

bool ProgressEngine::drain_submissions() {
  bool any = false;
  const std::uint32_t n = lane_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    SpscRing<SubmitOp>& lane = *lanes_[i];
    // Idle lanes leave the in-flight count alone: bumping it on every
    // empty poll would keep the wait() watchdog from ever seeing quiet.
    if (lane.empty()) continue;
    SubmitOp op;
    for (std::size_t k = 0; k < kDrainChunk; ++k) {
      // Account the op as in flight BEFORE popping: between the pop (ring
      // now empty) and submit (engine now busy) the wait() watchdog would
      // otherwise sample the world as quiet. The increment is sequenced
      // before the pop's tail release-store, so a waiter that observes the
      // empty ring also observes the in-flight count.
      inflight_submissions_.fetch_add(1, std::memory_order_relaxed);
      if (!lane.try_pop(op)) {
        inflight_submissions_.fetch_sub(1, std::memory_order_release);
        break;
      }
      if (op.send != nullptr) {
        scheduler_.submit_send(std::move(op.send));
      } else if (op.recv != nullptr) {
        scheduler_.submit_recv(std::move(op.recv));
      }
      inflight_submissions_.fetch_sub(1, std::memory_order_release);
      any = true;
    }
  }
  return any;
}

void ProgressEngine::flush_submissions() {
  std::lock_guard<std::mutex> lock(*hooks_.lock);
  // Loop until one full round-robin pass over all lanes moves nothing:
  // everything pushed before the call is then in the scheduler. Requests
  // racing in concurrently may land in a later pass or stay queued.
  while (drain_submissions()) {
  }
}

bool ProgressEngine::submissions_idle() const {
  const std::uint32_t n = lane_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!lanes_[i]->empty()) return false;
  }
  // Checked after the rings: an op popped but not yet in the scheduler is
  // still pending work (see drain_submissions). The acquire pairs with the
  // drain's release decrement, so count==0 implies the submit's engine
  // events are visible to a subsequent engine->idle() sample.
  return inflight_submissions_.load(std::memory_order_acquire) == 0;
}

void ProgressEngine::register_metrics(obs::MetricsRegistry& registry,
                                      const std::string& prefix) {
  registry.add(prefix + "submit.stalls", &submission_stalls_);
  registry.add(prefix + "completions", &completions_);
}

void ProgressEngine::park(const std::function<bool()>& ready,
                          std::chrono::milliseconds budget) {
  world_->done.park(ready, Doorbell::Clock::now() + budget);
}

void ProgressEngine::wait(const std::function<bool()>& pred) {
  using Clock = Doorbell::Clock;
  // Parks are bounded so the watchdog below keeps sampling a world that
  // has gone silent; a settled request ends a slice early.
  constexpr std::chrono::milliseconds kSlice{10};
  Clock::time_point quiet_since{};
  bool quiet = false;
  while (!pred()) {
    park(pred, kSlice);
    // Deadlock watchdog: "quiet" must hold CONTINUOUSLY for the timeout —
    // the progress thread can be mid-callback with the queues momentarily
    // empty, so one quiet sample proves nothing.
    if (!world_->quiet()) {
      quiet = false;
      continue;
    }
    const auto now = Clock::now();
    if (!quiet) {
      quiet = true;
      quiet_since = now;
    } else if (now - quiet_since > kStallTimeout) {
      NMAD_PANIC(
          "threaded wait stalled: engine idle, submissions drained, predicate "
          "still false (deadlock in the communication pattern?)");
    }
  }
}

}  // namespace nmad::core
