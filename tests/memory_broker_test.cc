#include "src/engine/memory_broker.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <utility>

#include "tests/lambda_events.h"

namespace dbscale::engine {
namespace {

// Test-side client: the broker reports grants by slot; each Acquire here
// takes a fresh slot and remembers the callback to run for it.
class LambdaBroker : public MemoryBroker::Client, public MemoryBroker {
 public:
  using Grant = std::function<void(Duration wait, double granted_mb)>;

  LambdaBroker(EventQueue* events, double workspace_mb)
      : MemoryBroker(events, workspace_mb, this) {}

  void Acquire(double mb, Grant grant) {
    grants_.push_back(std::move(grant));
    MemoryBroker::Acquire(mb, static_cast<uint32_t>(grants_.size() - 1));
  }

 private:
  void OnMemoryGranted(uint32_t slot, Duration wait,
                       double granted_mb) override {
    grants_[slot](wait, granted_mb);
  }

  std::deque<Grant> grants_;
};

TEST(MemoryBrokerTest, GrantWithinWorkspaceImmediate) {
  LambdaEvents events;
  LambdaBroker broker(&events, 100.0);
  double granted = 0.0;
  broker.Acquire(40.0, [&](Duration wait, double mb) {
    EXPECT_EQ(wait, Duration::Zero());
    granted = mb;
  });
  EXPECT_DOUBLE_EQ(granted, 40.0);
  EXPECT_DOUBLE_EQ(broker.in_use_mb(), 40.0);
}

TEST(MemoryBrokerTest, OversizedRequestClamped) {
  LambdaEvents events;
  LambdaBroker broker(&events, 100.0);
  double granted = 0.0;
  broker.Acquire(500.0, [&](Duration, double mb) { granted = mb; });
  EXPECT_DOUBLE_EQ(granted, 100.0);
}

TEST(MemoryBrokerTest, QueuesWhenExhausted) {
  LambdaEvents events;
  LambdaBroker broker(&events, 100.0);
  broker.Acquire(80.0, [](Duration, double) {});
  bool granted = false;
  Duration waited;
  broker.Acquire(50.0, [&](Duration w, double) {
    granted = true;
    waited = w;
  });
  EXPECT_FALSE(granted);
  EXPECT_EQ(broker.queue_length(), 1u);
  events.ScheduleAt(SimTime::Zero() + Duration::Seconds(3),
                    [&] { broker.Release(80.0); });
  events.RunAll();
  EXPECT_TRUE(granted);
  EXPECT_DOUBLE_EQ(waited.ToSeconds(), 3.0);
}

TEST(MemoryBrokerTest, FifoGrantOrder) {
  LambdaEvents events;
  LambdaBroker broker(&events, 100.0);
  broker.Acquire(100.0, [](Duration, double) {});
  std::vector<int> order;
  broker.Acquire(60.0, [&](Duration, double) { order.push_back(1); });
  broker.Acquire(10.0, [&](Duration, double) { order.push_back(2); });
  // Head-of-line: the small request does NOT jump the big one.
  broker.Release(100.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(MemoryBrokerTest, WorkspaceShrinkClampsQueuedRequests) {
  LambdaEvents events;
  LambdaBroker broker(&events, 100.0);
  broker.Acquire(100.0, [](Duration, double) {});
  double granted = 0.0;
  broker.Acquire(90.0, [&](Duration, double mb) { granted = mb; });
  broker.SetWorkspace(50.0);  // shrink while request queued
  broker.Release(100.0);
  // The queued request is clamped to the new workspace instead of wedging.
  EXPECT_DOUBLE_EQ(granted, 50.0);
}

TEST(MemoryBrokerTest, WorkspaceGrowUnblocksQueue) {
  LambdaEvents events;
  LambdaBroker broker(&events, 50.0);
  broker.Acquire(50.0, [](Duration, double) {});
  bool granted = false;
  broker.Acquire(40.0, [&](Duration, double) { granted = true; });
  EXPECT_FALSE(granted);
  broker.SetWorkspace(200.0);
  EXPECT_TRUE(granted);
}

TEST(MemoryBrokerTest, ReleaseNeverUnderflows) {
  LambdaEvents events;
  LambdaBroker broker(&events, 100.0);
  broker.Release(50.0);
  EXPECT_DOUBLE_EQ(broker.in_use_mb(), 0.0);
}

}  // namespace
}  // namespace dbscale::engine
