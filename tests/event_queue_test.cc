#include "src/engine/event_queue.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "tests/lambda_events.h"

namespace dbscale::engine {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  LambdaEvents q;
  std::vector<int> order;
  q.ScheduleAt(SimTime::FromMicros(300), [&] { order.push_back(3); });
  q.ScheduleAt(SimTime::FromMicros(100), [&] { order.push_back(1); });
  q.ScheduleAt(SimTime::FromMicros(200), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.events_processed(), 3u);
}

// Records the slot of every event it receives.
class SlotRecorder : public EventHandler {
 public:
  explicit SlotRecorder(std::vector<int>* order) : order_(order) {}
  void OnEvent(const Event& event) override {
    order_->push_back(static_cast<int>(event.slot));
  }

 private:
  std::vector<int>* order_;
};

TEST(EventQueueTest, FifoAmongEqualTimestamps) {
  LambdaEvents q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(SimTime::FromMicros(100), [&, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  // One (when, seq) order across handlers: events at one timestamp fire in
  // the order they were scheduled, whichever handler they address, and one
  // scheduled at that time while they run fires after all of them.
  order.clear();
  SlotRecorder recorder(&order);
  const uint16_t target = q.AddHandler(&recorder);
  const SimTime t = SimTime::FromMicros(200);
  q.ScheduleAt(t, [&] { order.push_back(10); });
  q.Schedule(t, target, /*kind=*/0, /*slot=*/11);
  q.ScheduleAt(t, [&] { order.push_back(12); });
  q.Schedule(t, target, /*kind=*/0, /*slot=*/13);
  q.Schedule(SimTime::FromMicros(150), target, /*kind=*/0, /*slot=*/19);
  q.ScheduleAt(t, [&] {
    order.push_back(14);
    q.Schedule(q.Now(), target, /*kind=*/0, /*slot=*/16);
  });
  q.Schedule(t, target, /*kind=*/0, /*slot=*/15);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{19, 10, 11, 12, 13, 14, 15, 16}));
}

TEST(EventQueueTest, NowAdvancesWithEvents) {
  LambdaEvents q;
  SimTime seen;
  q.ScheduleAt(SimTime::FromMicros(500), [&] { seen = q.Now(); });
  q.RunAll();
  EXPECT_EQ(seen, SimTime::FromMicros(500));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  LambdaEvents q;
  int ran = 0;
  q.ScheduleAt(SimTime::FromMicros(100), [&] { ++ran; });
  q.ScheduleAt(SimTime::FromMicros(200), [&] { ++ran; });
  q.ScheduleAt(SimTime::FromMicros(300), [&] { ++ran; });
  q.RunUntil(SimTime::FromMicros(200));  // inclusive
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.Now(), SimTime::FromMicros(200));
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(ran, 3);
}

TEST(EventQueueTest, RunUntilAdvancesNowWhenIdle) {
  LambdaEvents q;
  q.RunUntil(SimTime::FromMicros(1000));
  EXPECT_EQ(q.Now(), SimTime::FromMicros(1000));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsScheduleMoreEvents) {
  LambdaEvents q;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      q.ScheduleAfter(Duration::Micros(10), recurse);
    }
  };
  q.ScheduleAt(SimTime::FromMicros(0), recurse);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.Now(), SimTime::FromMicros(40));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  LambdaEvents q;
  SimTime fired;
  q.ScheduleAt(SimTime::FromMicros(100), [&] {
    q.ScheduleAfter(Duration::Micros(50), [&] { fired = q.Now(); });
  });
  q.RunAll();
  EXPECT_EQ(fired, SimTime::FromMicros(150));
}

}  // namespace
}  // namespace dbscale::engine
