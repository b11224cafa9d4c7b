// Application-level lock manager.
//
// Models the contention pattern that makes utilization-only auto-scaling
// over-provision: transactions serialize on a small set of hot rows, so
// latency degrades while every physical resource stays underutilized, and
// adding resources cannot help (paper Figure 13: lock waits > 90%).
//
// Exclusive FIFO locks on a fixed set of hot rows, with a wait timeout so
// overload produces bounded queues (a timed-out acquisition is granted
// "nothing" and the transaction proceeds to completion as an error, which is
// how engines surface lock timeouts).
//
// Waiters are the client's slots in a FIFO ring per row. Each wait arms a
// timeout record carrying the row and a 64-bit ticket unique to that wait,
// so a timeout whose waiter was already granted finds no match and stays a
// no-op, even when the client has since reused the slot for a new wait.

#ifndef DBSCALE_ENGINE_LOCK_MANAGER_H_
#define DBSCALE_ENGINE_LOCK_MANAGER_H_

#include <cstdint>
#include <vector>

#include "src/engine/event_queue.h"
#include "src/engine/slab.h"
#include "src/obs/metrics.h"

namespace dbscale::engine {

/// \brief FIFO exclusive locks over `num_rows` hot rows.
class LockManager : private EventHandler {
 public:
  /// Told when `slot`'s lock is granted (acquired == true) or its wait
  /// timed out (acquired == false), with the time spent waiting.
  class Client {
   public:
    virtual void OnLockResolved(uint32_t slot, bool acquired,
                                Duration wait) = 0;

   protected:
    ~Client() = default;
  };

  LockManager(EventQueue* events, int num_rows, Duration wait_timeout,
              Client* client);
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests the exclusive lock on `row` (0 <= row < num_rows) for the
  /// client's `slot`. An uncontended grant is reported before this returns.
  void Acquire(int row, uint32_t slot);

  /// Releases the lock on `row`; the next FIFO waiter (if any) is granted
  /// immediately. Must only be called by the current holder.
  void Release(int row);

  int num_rows() const { return static_cast<int>(rows_.size()); }
  bool IsHeld(int row) const;
  size_t QueueLength(int row) const;
  uint64_t timeouts() const { return timeouts_; }
  uint64_t grants() const { return grants_; }

  /// Enables metrics: grants and timeouts bump their counters, and every
  /// resolution (either way) observes its wait (ms) into `wait_ms`.
  /// Setup-time wiring; no-ops on a null sink.
  void SetMetrics(obs::MetricSink sink, obs::MetricId grants_total,
                  obs::MetricId timeouts_total, obs::MetricId wait_ms) {
    metrics_ = sink;
    grants_metric_ = grants_total;
    timeouts_metric_ = timeouts_total;
    wait_metric_ = wait_ms;
  }

 private:
  struct Waiter {
    uint64_t ticket;
    SimTime enqueued;
    uint32_t slot;
  };
  struct Row {
    bool held = false;
    Ring<Waiter> waiters;
  };

  /// A lock-wait timeout: `event.slot` is the row, `event.arg` the ticket.
  void OnEvent(const Event& event) override;
  void GrantNext(int row);

  EventQueue* events_;
  Client* client_;
  uint16_t handler_id_ = 0;
  Duration wait_timeout_;
  std::vector<Row> rows_;
  uint64_t next_ticket_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t grants_ = 0;

  obs::MetricSink metrics_;
  obs::MetricId grants_metric_ = 0;
  obs::MetricId timeouts_metric_ = 0;
  obs::MetricId wait_metric_ = 0;
};

}  // namespace dbscale::engine

#endif  // DBSCALE_ENGINE_LOCK_MANAGER_H_
