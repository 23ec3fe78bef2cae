// The discrete-event simulation engine: a virtual clock plus an event queue.
//
// Everything in the simulated platform — NIC DMA engines, CPU occupancy,
// wire latencies, the communication library's progression — advances by
// scheduling callbacks on one Engine. Serial runs are bit-reproducible,
// which the benchmark suite and golden tests rely on.
//
// Thread model (for the threaded progression engine, core/progress.hpp):
//  - schedule / schedule_at / cancel and the observers (now, idle,
//    pending_events, events_fired) may be called from any thread: the
//    event queue is guarded by a leaf mutex and the clock is atomic.
//  - the STEPPERS (step / run / run_until / run_for) must be externally
//    serialized — at most one thread advances virtual time at a time.
//    In threaded mode SimWorld::progress_mutex() provides that
//    serialization; serial mode is single-threaded by construction.
//  - callbacks fire with the queue mutex RELEASED, so an event may freely
//    schedule/cancel further events. Whatever lock serializes the
//    steppers is still held, so callbacks that enter the scheduling
//    layer remain mutually excluded.
//  - the wake hook (set_wake_hook) runs after every schedule, once the new
//    event is in the queue. Threaded progression installs one to ring its
//    progress thread's doorbell; serial mode leaves it unset.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace nmad::sim {

class Engine {
 public:
  using Callback = EventQueue::Callback;

  /// Current virtual time. Safe from any thread; a cross-thread reader
  /// sees some recent instant (the clock only moves forward).
  [[nodiscard]] TimeNs now() const noexcept {
    return now_.load(std::memory_order_acquire);
  }

  /// Schedule `cb` to run `delay` ns from now (delay >= 0).
  EventId schedule(TimeNs delay, Callback cb);

  /// Schedule at an absolute virtual time (>= now()).
  EventId schedule_at(TimeNs at, Callback cb);

  bool cancel(EventId id) {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.cancel(id);
  }

  /// Run events until the queue drains. Returns the number of events fired.
  std::size_t run();

  /// Run events until `pred()` becomes true (checked after each event) or
  /// the queue drains. Returns true if the predicate was satisfied.
  bool run_until(const std::function<bool()>& pred);

  /// Run events with timestamp <= `deadline`; afterwards now() == deadline
  /// (or later if an event at deadline scheduled nothing further — now()
  /// never exceeds the last fired event's time or the deadline, whichever
  /// is larger).
  void run_for(TimeNs duration);

  /// Fire exactly one event if any is pending. Returns false on empty queue.
  bool step();

  /// Run `hook` after every schedule/schedule_at, outside the queue mutex
  /// (nullptr removes it). Install and remove it under the same lock that
  /// serializes every scheduling caller (SimWorld::progress_mutex() in
  /// threaded mode): the hook itself is not synchronized.
  void set_wake_hook(std::function<void()> hook) { wake_hook_ = std::move(hook); }

  [[nodiscard]] bool idle() const noexcept {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.empty();
  }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.size();
  }
  [[nodiscard]] std::uint64_t events_fired() const noexcept {
    return fired_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex queue_mutex_;  ///< leaf lock: guards queue_ only
  EventQueue queue_;
  std::atomic<TimeNs> now_{0};
  std::atomic<std::uint64_t> fired_{0};
  std::function<void()> wake_hook_;
};

}  // namespace nmad::sim
