#include "sim/event_queue.hpp"

#include <utility>

#include "util/panic.hpp"

namespace nmad::sim {

namespace {

// An EventId packs (generation << 32) | (slot + 1): never 0, so a
// default-constructed id stays invalid.
std::uint64_t pack_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) | (std::uint64_t{slot} + 1);
}

}  // namespace

EventId EventQueue::schedule_at(TimeNs at, Callback cb) {
  NMAD_ASSERT(cb != nullptr, "scheduling null callback");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.callback = std::move(cb);
  heap_.push(Entry{at, next_seq_++, slot, s.gen});
  ++live_count_;
  return EventId{pack_id(slot, s.gen)};
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t low = id.value & 0xffffffffu;
  if (low == 0 || low > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(low - 1);
  if (slots_[slot].gen != static_cast<std::uint32_t>(id.value >> 32) ||
      slots_[slot].callback == nullptr) {
    return false;
  }
  free_slot(slot);
  return true;
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.callback = nullptr;
  s.gen += 1;
  free_slots_.push_back(slot);
  --live_count_;
}

void EventQueue::drop_cancelled_head() const {
  while (!heap_.empty() && stale(heap_.top())) heap_.pop();
}

TimeNs EventQueue::next_time() const {
  drop_cancelled_head();
  NMAD_ASSERT(!heap_.empty(), "next_time on empty event queue");
  return heap_.top().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled_head();
  NMAD_ASSERT(!heap_.empty(), "pop on empty event queue");
  const Entry entry = heap_.top();
  heap_.pop();
  Fired fired{entry.time, std::move(slots_[entry.slot].callback)};
  free_slot(entry.slot);
  return fired;
}

}  // namespace nmad::sim
