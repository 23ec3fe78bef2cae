// Priority queue of timestamped events with stable FIFO ordering for ties
// and O(1) lazy cancellation. Callbacks live in a recycled slot array, so a
// steady stream of schedule/pop cycles allocates nothing once the array and
// the heap have grown to the peak number of pending events.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace nmad::sim {

/// Opaque handle identifying a scheduled event (for cancellation).
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// Min-heap of events ordered by (time, insertion sequence): two events at
/// the same timestamp fire in the order they were scheduled, which the
/// driver models rely on (e.g. a send completion scheduled before a
/// delivery at the same instant is observed first).
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` at absolute time `at`.
  EventId schedule_at(TimeNs at, Callback cb);

  /// Cancel a pending event. Returns false if the event already fired or was
  /// already cancelled. Cancellation is O(1) amortized (lazy deletion).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }
  /// Callback slots ever allocated: the peak number of simultaneously
  /// pending events, not the number ever scheduled.
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Earliest pending event time; panics when empty.
  [[nodiscard]] TimeNs next_time() const;

  /// Pop the earliest event and return its callback together with its
  /// timestamp; panics when empty.
  struct Fired {
    TimeNs time;
    Callback callback;
  };
  Fired pop();

 private:
  /// A heap entry names its callback by slot and by the slot's generation
  /// when it was scheduled; a slot bumps its generation whenever it is
  /// freed (fired or cancelled), so stale entries and stale EventIds are
  /// recognized without searching.
  struct Entry {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  struct Slot {
    Callback callback;
    std::uint32_t gen = 0;
  };

  [[nodiscard]] bool stale(const Entry& e) const noexcept {
    return slots_[e.slot].gen != e.gen;
  }
  void free_slot(std::uint32_t slot);
  void drop_cancelled_head() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace nmad::sim
