#include "sim/engine.hpp"

#include <utility>

#include "util/panic.hpp"

namespace nmad::sim {

EventId Engine::schedule(TimeNs delay, Callback cb) {
  NMAD_ASSERT(delay >= 0, "negative event delay");
  std::unique_lock<std::mutex> lock(queue_mutex_);
  const EventId id = queue_.schedule_at(
      now_.load(std::memory_order_relaxed) + delay, std::move(cb));
  lock.unlock();
  if (wake_hook_) wake_hook_();
  return id;
}

EventId Engine::schedule_at(TimeNs at, Callback cb) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  NMAD_ASSERT(at >= now_.load(std::memory_order_relaxed),
              "scheduling into the past");
  const EventId id = queue_.schedule_at(at, std::move(cb));
  lock.unlock();
  if (wake_hook_) wake_hook_();
  return id;
}

bool Engine::step() {
  Callback cb;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.empty()) return false;
    auto fired = queue_.pop();
    NMAD_ASSERT(fired.time >= now_.load(std::memory_order_relaxed),
                "event queue time went backwards");
    now_.store(fired.time, std::memory_order_release);
    fired_.fetch_add(1, std::memory_order_relaxed);
    cb = std::move(fired.callback);
  }
  // Fired with the queue mutex released so the callback may schedule or
  // cancel events. The stepper-serialization lock (if any) is still held.
  cb();
  return true;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

bool Engine::run_until(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (step()) {
    if (pred()) return true;
  }
  return false;
}

void Engine::run_for(TimeNs duration) {
  const TimeNs deadline = now_.load(std::memory_order_relaxed) + duration;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.empty() || queue_.next_time() > deadline) break;
    }
    step();
  }
  // Advance the clock to the deadline if no event reached it.
  TimeNs cur = now_.load(std::memory_order_relaxed);
  while (cur < deadline &&
         !now_.compare_exchange_weak(cur, deadline, std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace nmad::sim
