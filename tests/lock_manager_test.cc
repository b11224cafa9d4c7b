#include "src/engine/lock_manager.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "tests/lambda_events.h"

namespace dbscale::engine {
namespace {

// Test-side client: the lock manager reports by slot; each Acquire here
// takes a fresh slot and remembers the callback to run for it.
class LambdaLocks : public LockManager::Client, public LockManager {
 public:
  using Grant = std::function<void(bool acquired, Duration wait)>;

  LambdaLocks(EventQueue* events, int num_rows, Duration wait_timeout)
      : LockManager(events, num_rows, wait_timeout, this) {}

  void Acquire(int row, Grant grant) {
    grants_.push_back(std::move(grant));
    LockManager::Acquire(row, static_cast<uint32_t>(grants_.size() - 1));
  }

 private:
  void OnLockResolved(uint32_t slot, bool acquired, Duration wait) override {
    grants_[slot](acquired, wait);
  }

  std::deque<Grant> grants_;
};

TEST(LockManagerTest, UncontendedGrantIsImmediate) {
  LambdaEvents events;
  LambdaLocks locks(&events, 4, Duration::Seconds(10));
  bool granted = false;
  locks.Acquire(0, [&](bool acquired, Duration wait) {
    granted = acquired;
    EXPECT_EQ(wait, Duration::Zero());
  });
  EXPECT_TRUE(granted);  // synchronous grant
  EXPECT_TRUE(locks.IsHeld(0));
  EXPECT_EQ(locks.grants(), 1u);
}

TEST(LockManagerTest, IndependentRows) {
  LambdaEvents events;
  LambdaLocks locks(&events, 4, Duration::Seconds(10));
  int grants = 0;
  locks.Acquire(0, [&](bool, Duration) { ++grants; });
  locks.Acquire(1, [&](bool, Duration) { ++grants; });
  EXPECT_EQ(grants, 2);
}

TEST(LockManagerTest, FifoWaitersGrantedOnRelease) {
  LambdaEvents events;
  LambdaLocks locks(&events, 2, Duration::Seconds(10));
  std::vector<int> order;
  locks.Acquire(0, [&](bool, Duration) { order.push_back(0); });
  locks.Acquire(0, [&](bool a, Duration) {
    ASSERT_TRUE(a);
    order.push_back(1);
    locks.Release(0);
  });
  locks.Acquire(0, [&](bool a, Duration) {
    ASSERT_TRUE(a);
    order.push_back(2);
  });
  EXPECT_EQ(locks.QueueLength(0), 2u);
  locks.Release(0);  // grants waiter 1, whose callback releases -> waiter 2
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(LockManagerTest, WaitTimeMeasured) {
  LambdaEvents events;
  LambdaLocks locks(&events, 1, Duration::Seconds(10));
  locks.Acquire(0, [](bool, Duration) {});
  Duration waited;
  locks.Acquire(0, [&](bool a, Duration w) {
    EXPECT_TRUE(a);
    waited = w;
  });
  events.ScheduleAt(SimTime::Zero() + Duration::Seconds(2),
                    [&] { locks.Release(0); });
  events.RunAll();
  EXPECT_DOUBLE_EQ(waited.ToSeconds(), 2.0);
}

TEST(LockManagerTest, TimeoutAbortsWaiter) {
  LambdaEvents events;
  LambdaLocks locks(&events, 1, Duration::Seconds(5));
  locks.Acquire(0, [](bool, Duration) {});  // holder, never releases
  bool acquired = true;
  Duration waited;
  locks.Acquire(0, [&](bool a, Duration w) {
    acquired = a;
    waited = w;
  });
  events.RunAll();
  EXPECT_FALSE(acquired);
  EXPECT_DOUBLE_EQ(waited.ToSeconds(), 5.0);
  EXPECT_EQ(locks.timeouts(), 1u);
  EXPECT_EQ(locks.QueueLength(0), 0u);
}

TEST(LockManagerTest, GrantBeforeTimeoutCancelsIt) {
  LambdaEvents events;
  LambdaLocks locks(&events, 1, Duration::Seconds(5));
  locks.Acquire(0, [](bool, Duration) {});
  int outcomes = 0;
  bool acquired = false;
  locks.Acquire(0, [&](bool a, Duration) {
    ++outcomes;
    acquired = a;
  });
  events.ScheduleAt(SimTime::Zero() + Duration::Seconds(1),
                    [&] { locks.Release(0); });
  events.RunAll();  // runs past the timeout event
  EXPECT_EQ(outcomes, 1);  // exactly one outcome
  EXPECT_TRUE(acquired);
  EXPECT_EQ(locks.timeouts(), 0u);
}

TEST(LockManagerTest, TimeoutSkipsToNextWaiter) {
  LambdaEvents events;
  LambdaLocks locks(&events, 1, Duration::Seconds(5));
  locks.Acquire(0, [](bool, Duration) {});
  bool first_acquired = true;
  bool second_acquired = false;
  locks.Acquire(0, [&](bool a, Duration) { first_acquired = a; });
  // Second waiter enqueued after 3s; holder releases at 7s. First waiter
  // times out at 5s; second (timeout at 8s) gets the lock at 7s.
  events.ScheduleAt(SimTime::Zero() + Duration::Seconds(3), [&] {
    locks.Acquire(0, [&](bool a, Duration) { second_acquired = a; });
  });
  events.ScheduleAt(SimTime::Zero() + Duration::Seconds(7),
                    [&] { locks.Release(0); });
  events.RunAll();
  EXPECT_FALSE(first_acquired);
  EXPECT_TRUE(second_acquired);
}

TEST(LockManagerTest, ReleaseWithEmptyQueueFreesRow) {
  LambdaEvents events;
  LambdaLocks locks(&events, 1, Duration::Seconds(5));
  locks.Acquire(0, [](bool, Duration) {});
  locks.Release(0);
  EXPECT_FALSE(locks.IsHeld(0));
  bool granted = false;
  locks.Acquire(0, [&](bool a, Duration) { granted = a; });
  EXPECT_TRUE(granted);
}

// Records every resolution the lock manager reports, by slot.
class RecordingClient : public LockManager::Client {
 public:
  struct Outcome {
    uint32_t slot;
    bool acquired;
    Duration wait;
  };
  void OnLockResolved(uint32_t slot, bool acquired, Duration wait) override {
    outcomes.push_back(Outcome{slot, acquired, wait});
  }
  std::vector<Outcome> outcomes;
};

// A timeout armed for a wait that was granted must stay a no-op even when
// the client reuses the slot for a new wait on the same row before the old
// timeout fires: the timeout matches its wait's ticket, not the slot.
TEST(LockManagerTest, StaleTimeoutIgnoresReusedSlot) {
  LambdaEvents events;
  RecordingClient client;
  LockManager locks(&events, 1, Duration::Seconds(5), &client);
  const auto at = [](double s) {
    return SimTime::Zero() + Duration::Seconds(s);
  };
  locks.Acquire(0, /*slot=*/1);  // holder
  locks.Acquire(0, /*slot=*/2);  // waits; its timeout fires at t=5
  events.ScheduleAt(at(1), [&] { locks.Release(0); });  // grants slot 2
  events.ScheduleAt(at(2), [&] { locks.Release(0); });  // slot 2 commits
  events.ScheduleAt(at(3), [&] {
    locks.Acquire(0, /*slot=*/1);  // a new holder
    locks.Acquire(0, /*slot=*/2);  // slot 2 reused; times out at t=8
  });
  events.RunUntil(at(6));  // past the first wait's timeout
  ASSERT_EQ(client.outcomes.size(), 3u);
  EXPECT_EQ(client.outcomes[1].slot, 2u);
  EXPECT_TRUE(client.outcomes[1].acquired);
  EXPECT_EQ(locks.timeouts(), 0u);
  EXPECT_EQ(locks.QueueLength(0), 1u);  // the reused slot still waits

  events.RunAll();
  ASSERT_EQ(client.outcomes.size(), 4u);
  EXPECT_EQ(client.outcomes[3].slot, 2u);
  EXPECT_FALSE(client.outcomes[3].acquired);
  EXPECT_DOUBLE_EQ(client.outcomes[3].wait.ToSeconds(), 5.0);
  EXPECT_EQ(locks.timeouts(), 1u);
  EXPECT_EQ(locks.QueueLength(0), 0u);
}

}  // namespace
}  // namespace dbscale::engine
