// Workspace memory grants.
//
// Queries that sort/hash request a workspace memory grant before executing;
// when the workspace (a slice of container memory) is exhausted, requests
// queue — surfacing as *memory waits* in telemetry. A FIFO counting
// semaphore measured in MB, whose waiters are the client's slots in a FIFO
// ring.

#ifndef DBSCALE_ENGINE_MEMORY_BROKER_H_
#define DBSCALE_ENGINE_MEMORY_BROKER_H_

#include <cstdint>

#include "src/engine/event_queue.h"
#include "src/engine/slab.h"
#include "src/obs/metrics.h"

namespace dbscale::engine {

/// \brief FIFO counting semaphore over workspace memory (MB).
class MemoryBroker {
 public:
  /// Receives `slot`'s grant: the wait experienced and the MB actually
  /// granted (which may be clamped); the client must Release() exactly
  /// `granted_mb`.
  class Client {
   public:
    virtual void OnMemoryGranted(uint32_t slot, Duration wait,
                                 double granted_mb) = 0;

   protected:
    ~Client() = default;
  };

  MemoryBroker(EventQueue* events, double workspace_mb, Client* client);

  /// Requests `mb` of workspace for the client's `slot`. Grants are FIFO; a
  /// request larger than the whole workspace is clamped to it (engines cap
  /// grants similarly). A grant that fits is reported before this returns.
  void Acquire(double mb, uint32_t slot);

  /// Returns `mb` of workspace (must match the granted amount).
  void Release(double mb);

  /// Online resize; queued requests re-evaluate against the new size.
  void SetWorkspace(double workspace_mb);

  double workspace_mb() const { return workspace_mb_; }
  double in_use_mb() const { return in_use_mb_; }
  size_t queue_length() const { return waiters_.size(); }

  /// Enables metrics: every grant bumps `grants_total` and observes the
  /// wait it queued (ms) into `wait_ms`. Setup-time wiring; no-ops on a
  /// null sink.
  void SetMetrics(obs::MetricSink sink, obs::MetricId grants_total,
                  obs::MetricId wait_ms) {
    metrics_ = sink;
    grants_metric_ = grants_total;
    wait_metric_ = wait_ms;
  }

 private:
  struct Waiter {
    double mb;
    SimTime enqueued;
    uint32_t slot;
  };

  void TryGrant();

  EventQueue* events_;
  Client* client_;
  double workspace_mb_;
  double in_use_mb_ = 0.0;
  Ring<Waiter> waiters_;

  obs::MetricSink metrics_;
  obs::MetricId grants_metric_ = 0;
  obs::MetricId wait_metric_ = 0;
};

}  // namespace dbscale::engine

#endif  // DBSCALE_ENGINE_MEMORY_BROKER_H_
