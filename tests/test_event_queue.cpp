// EventQueue slot recycling: callbacks live in a reused slot array, so the
// tests pin what reuse must never change — an EventId names one scheduling
// only, ties still fire in schedule order, and the array stays at the peak
// number of pending events however many events pass through it.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

namespace {

using namespace nmad::sim;

TEST(EventQueueSlots, CancelAfterFireReturnsFalse) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(10, [&] { ++fired; });
  q.pop().callback();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueSlots, StaleIdDoesNotCancelTheSlotsNextEvent) {
  EventQueue q;
  int old_fired = 0;
  int new_fired = 0;
  const EventId old_id = q.schedule_at(5, [&] { ++old_fired; });
  ASSERT_TRUE(q.cancel(old_id));
  // The freed slot is reused by the next scheduling.
  const EventId new_id = q.schedule_at(7, [&] { ++new_fired; });
  EXPECT_EQ(q.slot_count(), 1u);
  EXPECT_NE(new_id, old_id);

  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  const auto fired = q.pop();
  EXPECT_EQ(fired.time, 7);
  fired.callback();
  EXPECT_EQ(new_fired, 1);
  EXPECT_EQ(old_fired, 0);

  // Same once the reused slot has fired: the old id still names nothing.
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_FALSE(q.cancel(new_id));
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueueSlots, TiesFireFifoAcrossSlotReuse) {
  EventQueue q;
  std::vector<int> order;
  // Free slots in an order unrelated to scheduling order, then reuse them.
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(q.schedule_at(1, [] {}));
  for (const int i : {4, 1, 5, 0, 3, 2}) ASSERT_TRUE(q.cancel(ids[i]));
  for (int i = 0; i < 6; ++i) {
    q.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.slot_count(), 6u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueSlots, ScheduleAndPopCyclesKeepTheSlotArrayBounded) {
  EventQueue q;
  std::uint64_t fired = 0;
  // A steady depth of 8 pending events over 100k cycles; every fourth
  // newly scheduled event is cancelled and replaced at the same instant.
  TimeNs t = 0;
  for (int i = 0; i < 8; ++i) q.schedule_at(++t, [&] { ++fired; });
  for (int cycle = 0; cycle < 100'000; ++cycle) {
    q.pop().callback();
    const EventId id = q.schedule_at(++t, [&] { ++fired; });
    if (cycle % 4 == 0) {
      ASSERT_TRUE(q.cancel(id));
      q.schedule_at(t, [&] { ++fired; });
    }
  }
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.slot_count(), 8u);
  EXPECT_EQ(fired, 100'000u);
}

}  // namespace
