#include "src/engine/server_queue.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <string>
#include <utility>

namespace dbscale::engine {
namespace {

// Test-side client: the queue reports completions by slot; each Submit here
// takes a fresh slot and remembers the callback to run for it.
class LambdaQueue : public ServerQueue::Client, public ServerQueue {
 public:
  using Completion = std::function<void(Duration queue_wait, Duration service)>;

  LambdaQueue(EventQueue* events, std::string name, int num_servers,
              double speed)
      : ServerQueue(events, std::move(name), num_servers, speed, this) {}

  void Submit(double work, Completion done) {
    done_.push_back(std::move(done));
    ServerQueue::Submit(work, static_cast<uint32_t>(done_.size() - 1));
  }

 private:
  void OnServed(const ServerQueue& /*queue*/, uint32_t slot,
                Duration queue_wait, Duration service_time) override {
    done_[slot](queue_wait, service_time);
  }

  std::deque<Completion> done_;
};

TEST(ServerQueueTest, SingleJobServiceTime) {
  EventQueue events;
  LambdaQueue q(&events, "disk", 1, 100.0);  // 100 work units / sec
  Duration wait, service;
  bool done = false;
  q.Submit(50.0, [&](Duration w, Duration s) {
    wait = w;
    service = s;
    done = true;
  });
  events.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(wait, Duration::Zero());
  EXPECT_DOUBLE_EQ(service.ToSeconds(), 0.5);
}

TEST(ServerQueueTest, FifoQueueingDelay) {
  EventQueue events;
  LambdaQueue q(&events, "disk", 1, 1.0);  // 1 unit/sec
  std::vector<double> waits;
  for (int i = 0; i < 3; ++i) {
    q.Submit(1.0, [&](Duration w, Duration) {
      waits.push_back(w.ToSeconds());
    });
  }
  events.RunAll();
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_DOUBLE_EQ(waits[0], 0.0);
  EXPECT_DOUBLE_EQ(waits[1], 1.0);
  EXPECT_DOUBLE_EQ(waits[2], 2.0);
}

TEST(ServerQueueTest, MultiServerParallelism) {
  EventQueue events;
  LambdaQueue q(&events, "cpu", 2, 1.0);
  std::vector<double> completion_times;
  for (int i = 0; i < 4; ++i) {
    q.Submit(1.0, [&](Duration, Duration) {
      completion_times.push_back(events.Now().ToSeconds());
    });
  }
  events.RunAll();
  ASSERT_EQ(completion_times.size(), 4u);
  // Two at t=1 (parallel), two at t=2.
  EXPECT_DOUBLE_EQ(completion_times[0], 1.0);
  EXPECT_DOUBLE_EQ(completion_times[1], 1.0);
  EXPECT_DOUBLE_EQ(completion_times[2], 2.0);
  EXPECT_DOUBLE_EQ(completion_times[3], 2.0);
}

TEST(ServerQueueTest, SubCoreSpeedStretchesService) {
  // A 0.5-core container: 10ms of work takes 20ms.
  EventQueue events;
  LambdaQueue q(&events, "cpu", 1, 0.5);
  Duration service;
  q.Submit(0.010, [&](Duration, Duration s) { service = s; });
  events.RunAll();
  EXPECT_DOUBLE_EQ(service.ToMillis(), 20.0);
}

TEST(ServerQueueTest, CapacityIncreaseDrainsQueueFaster) {
  EventQueue events;
  LambdaQueue q(&events, "disk", 1, 1.0);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    q.Submit(1.0, [&](Duration, Duration) { ++completed; });
  }
  events.RunUntil(SimTime::Zero() + Duration::Seconds(2));
  EXPECT_EQ(completed, 2);
  q.SetCapacity(1, 10.0);  // 10x faster for queued jobs
  // The in-service job finishes at t=3 at the old speed; the remaining 7
  // queued jobs then take 0.1s each.
  events.RunUntil(SimTime::Zero() + Duration::Seconds(3.8));
  EXPECT_EQ(completed, 10);
}

TEST(ServerQueueTest, CapacityDecreaseAffectsOnlyNewDispatches) {
  EventQueue events;
  LambdaQueue q(&events, "cpu", 2, 1.0);
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    q.Submit(1.0, [&](Duration, Duration) {
      times.push_back(events.Now().ToSeconds());
    });
  }
  // Two jobs are in service; shrink to one server.
  q.SetCapacity(1, 1.0);
  events.RunAll();
  ASSERT_EQ(times.size(), 3u);
  // In-service jobs finish at t=1 unaffected; the queued one runs after.
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.0);
  EXPECT_DOUBLE_EQ(times[2], 2.0);
}

TEST(ServerQueueTest, UtilizationAccounting) {
  EventQueue events;
  LambdaQueue q(&events, "disk", 1, 100.0);
  q.Submit(50.0, [](Duration, Duration) {});
  events.RunUntil(SimTime::Zero() + Duration::Seconds(1));
  auto usage = q.ConsumeUsage();
  EXPECT_DOUBLE_EQ(usage.work_done, 50.0);
  EXPECT_DOUBLE_EQ(usage.capacity, 100.0);
  EXPECT_DOUBLE_EQ(usage.utilization_pct(), 50.0);
  // Consumed: next window starts clean.
  events.RunUntil(SimTime::Zero() + Duration::Seconds(2));
  auto usage2 = q.ConsumeUsage();
  EXPECT_DOUBLE_EQ(usage2.work_done, 0.0);
  EXPECT_DOUBLE_EQ(usage2.capacity, 100.0);
}

TEST(ServerQueueTest, UtilizationWithCapacityChangeMidWindow) {
  EventQueue events;
  LambdaQueue q(&events, "disk", 1, 100.0);
  events.RunUntil(SimTime::Zero() + Duration::Seconds(1));
  q.SetCapacity(1, 300.0);
  events.RunUntil(SimTime::Zero() + Duration::Seconds(2));
  auto usage = q.ConsumeUsage();
  // 1s at 100/s plus 1s at 300/s.
  EXPECT_DOUBLE_EQ(usage.capacity, 400.0);
}

TEST(ServerQueueTest, SaturatedUtilizationIs100) {
  EventQueue events;
  LambdaQueue q(&events, "disk", 1, 10.0);
  for (int i = 0; i < 100; ++i) q.Submit(1.0, [](Duration, Duration) {});
  events.RunUntil(SimTime::Zero() + Duration::Seconds(5));
  auto usage = q.ConsumeUsage();
  EXPECT_NEAR(usage.utilization_pct(), 100.0, 2.5);
  EXPECT_GT(q.queue_length(), 0u);
}

TEST(ServerQueueTest, JobsCompletedCounter) {
  EventQueue events;
  LambdaQueue q(&events, "log", 1, 1000.0);
  for (int i = 0; i < 7; ++i) q.Submit(1.0, [](Duration, Duration) {});
  events.RunAll();
  EXPECT_EQ(q.jobs_completed(), 7u);
  EXPECT_EQ(q.busy_servers(), 0);
}

}  // namespace
}  // namespace dbscale::engine
