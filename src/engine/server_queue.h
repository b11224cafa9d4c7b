// A FIFO multi-server work queue — the shared model for the CPU scheduler,
// the disk device, and the log device.
//
// The resource has `num_servers` servers, each processing `speed` work units
// per second. A job of `work` units therefore occupies one server for
// work / speed seconds; jobs queue FIFO when all servers are busy. Container
// resizes change (num_servers, speed) online: jobs already in service finish
// at their original speed; queued jobs see the new capacity.
//
//   CPU:  work = core-seconds, num_servers = ceil(cores),
//         speed = cores / ceil(cores)  (a 0.5-core container runs a 10 ms
//         burst in 20 ms; queueing delay is the "signal wait")
//   Disk: work = #I/O operations, num_servers = 1, speed = IOPS
//   Log:  work = MB to flush,     num_servers = 1, speed = MB/s
//
// Jobs belong to the client's slots: waiting jobs sit in a FIFO ring,
// in-service jobs in a slab whose index the completion event carries, and
// each completion reports the slot back to the client.

#ifndef DBSCALE_ENGINE_SERVER_QUEUE_H_
#define DBSCALE_ENGINE_SERVER_QUEUE_H_

#include <cstdint>
#include <string>

#include "src/engine/event_queue.h"
#include "src/engine/slab.h"
#include "src/obs/metrics.h"

namespace dbscale::engine {

/// \brief FIFO multi-server queue with online capacity changes and
/// utilization accounting.
class ServerQueue : private EventHandler {
 public:
  /// Receives each completed job's slot with the queueing delay and the
  /// in-service time it experienced.
  class Client {
   public:
    virtual void OnServed(const ServerQueue& queue, uint32_t slot,
                          Duration queue_wait, Duration service_time) = 0;

   protected:
    ~Client() = default;
  };

  ServerQueue(EventQueue* events, std::string name, int num_servers,
              double speed, Client* client);
  ServerQueue(const ServerQueue&) = delete;
  ServerQueue& operator=(const ServerQueue&) = delete;

  /// Enqueues a job of `work` units (> 0) for the client's `slot`.
  void Submit(double work, uint32_t slot);

  /// Online capacity change. In-service jobs are unaffected; takes effect
  /// for dispatches from now on. If the server count shrinks, excess busy
  /// servers drain naturally.
  void SetCapacity(int num_servers, double speed);

  int num_servers() const { return num_servers_; }
  double speed() const { return speed_; }
  double total_rate() const { return num_servers_ * speed_; }
  size_t queue_length() const { return queue_.size(); }
  int busy_servers() const { return busy_; }

  /// Work units completed and capacity integral (work units the resource
  /// *could* have completed) since the last call; used for utilization:
  /// utilization = work_done / capacity. Also advances the internal
  /// capacity-integration clock to Now().
  struct UsageDelta {
    double work_done = 0.0;
    double capacity = 0.0;
    double utilization_pct() const {
      return capacity > 0.0 ? 100.0 * work_done / capacity : 0.0;
    }
  };
  UsageDelta ConsumeUsage();

  uint64_t jobs_completed() const { return jobs_completed_; }

  /// Enables metrics: each completed job bumps `jobs_total` and observes
  /// its queueing delay (ms) into the `queue_wait_ms` histogram. Setup-time
  /// wiring; recording stays allocation-free and no-ops on a null sink.
  void SetMetrics(obs::MetricSink sink, obs::MetricId jobs_total,
                  obs::MetricId queue_wait_ms) {
    metrics_ = sink;
    jobs_metric_ = jobs_total;
    wait_metric_ = queue_wait_ms;
  }

 private:
  struct Job {
    double work;
    SimTime submitted;
    uint32_t slot;
  };
  struct Running {
    double work;
    Duration queue_wait;
    Duration service;
    uint32_t slot;
  };

  /// A job completion; `event.slot` indexes running_.
  void OnEvent(const Event& event) override;
  void TryDispatch();
  void AccrueCapacity();

  EventQueue* events_;
  Client* client_;
  uint16_t handler_id_ = 0;
  std::string name_;
  int num_servers_;
  double speed_;
  int busy_ = 0;
  Ring<Job> queue_;
  Slab<Running> running_;

  // Usage accounting.
  double work_done_accum_ = 0.0;
  double capacity_accum_ = 0.0;
  SimTime capacity_accrued_until_ = SimTime::Zero();
  uint64_t jobs_completed_ = 0;

  obs::MetricSink metrics_;
  obs::MetricId jobs_metric_ = 0;
  obs::MetricId wait_metric_ = 0;
};

}  // namespace dbscale::engine

#endif  // DBSCALE_ENGINE_SERVER_QUEUE_H_
