// The simulated database engine.
//
// Substitutes for the Azure SQL DB engine of the paper's prototype: executes
// requests against container-limited resources and emits the production
// telemetry (utilization, wait statistics by class, latencies) that the
// auto-scaler consumes. See DESIGN.md §2 for the substitution argument.
//
// Request lifecycle:
//   arrive -> [workspace memory grant] ->
//   { CPU slice -> page accesses (buffer pool; misses -> disk I/O) }* ->
//   [hot-row lock, held through application think time] ->
//   [log write] -> commit (release lock & grant)
//
// The hot-row lock is taken after the resource-bound read/compute phase and
// held through application think time and the commit, so lock hold times —
// and therefore lock contention — are essentially independent of container
// size: the paper's "bottleneck beyond resources".
//
// Every microsecond a request spends blocked is attributed to a WaitClass:
//   CPU queueing + slow-core stretch  -> CPU (signal waits)
//   cold page-read I/O                -> DiskIO
//   hot page-read I/O under memory pressure -> BufferPool
//   hot page-read I/O during warm-up  -> DiskIO
//   log-write queueing + service      -> LogIO
//   lock queueing                     -> Lock
//   latch interference                -> Latch
//   memory-grant queueing             -> Memory
//   background (checkpoint-like)      -> System
//
// Each in-flight request owns a slot of a slab recycled at Finish. The
// lifecycle steps are a dispatch on the slot: the server queues, the lock
// manager and the memory broker report completions and grants by slot, and
// the engine's own delays (think time, latch and system waits) are record
// events carrying it. A step that needs no wait continues inline.

#ifndef DBSCALE_ENGINE_ENGINE_H_
#define DBSCALE_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/container/container.h"
#include "src/engine/buffer_pool.h"
#include "src/engine/engine_metrics.h"
#include "src/engine/event_queue.h"
#include "src/engine/lock_manager.h"
#include "src/engine/memory_broker.h"
#include "src/engine/request.h"
#include "src/engine/server_queue.h"
#include "src/engine/slab.h"
#include "src/obs/pipeline.h"
#include "src/stats/cdf.h"
#include "src/telemetry/sample.h"

namespace dbscale::engine {

/// Static configuration of the simulated database and engine behaviour.
struct EngineOptions {
  /// Total data size (MB); cold accesses roam over this minus the working
  /// set.
  double database_mb = 32768.0;
  /// Workload working-set size (MB).
  double working_set_mb = 1024.0;
  /// Number of contended hot rows for the lock manager.
  int num_hot_rows = 32;
  /// Lock-wait timeout (engine aborts the transaction afterwards).
  Duration lock_timeout = Duration::Seconds(10);
  /// Fraction of container memory given to the buffer pool; the rest is
  /// workspace for memory grants.
  double buffer_pool_fraction = 0.8;
  /// Per-request probability and mean duration of a latch interference wait.
  double latch_probability = 0.05;
  double latch_mean_ms = 1.0;
  /// Per-request probability and mean duration of background (checkpoint-
  /// like) interference.
  double system_wait_probability = 0.01;
  double system_wait_mean_ms = 4.0;
  /// Max number of CPU/I/O interleave rounds per request.
  int max_io_batches = 4;
};

/// \brief Container-limited database engine simulator.
class DatabaseEngine : private EventHandler,
                       private ServerQueue::Client,
                       private LockManager::Client,
                       private MemoryBroker::Client {
 public:
  using CompletionHook = std::function<void(const RequestResult&)>;

  DatabaseEngine(EventQueue* events, const EngineOptions& options,
                 const container::ContainerSpec& initial_container, Rng rng);
  DatabaseEngine(const DatabaseEngine&) = delete;
  DatabaseEngine& operator=(const DatabaseEngine&) = delete;

  /// Submits one request; `done` (optional) fires at completion.
  void Submit(const RequestSpec& spec, CompletionHook done = nullptr);

  /// Installs a listener invoked for every completed request (in addition
  /// to per-request hooks); the harness uses it for run-level latency
  /// accounting.
  void SetCompletionListener(CompletionHook listener);

  /// Pre-fills the buffer pool with the working set (up to capacity), as a
  /// steady-state start; avoids a cold-start miss storm at simulation
  /// begin.
  void PrewarmBufferPool();

  /// Stages a container resize. The engine keeps serving on the current
  /// container until CompleteResize() — mirroring the DaaS actuation path,
  /// where a resize is an operation that takes time and can fail. Errors
  /// when a resize is already staged (one actuation channel).
  Status BeginResize(const container::ContainerSpec& spec);

  /// Applies the staged resize (online; in-flight work is unaffected
  /// except that it now competes for the new capacity). Errors when no
  /// resize is staged.
  Status CompleteResize();

  /// Discards the staged resize (the actuation failed); the engine stays
  /// on its current container. Errors when no resize is staged.
  Status AbortResize();

  bool resize_pending() const { return staged_resize_.has_value(); }
  /// Target of the staged resize (unset when none is pending).
  const std::optional<container::ContainerSpec>& staged_resize() const {
    return staged_resize_;
  }

  /// Noisy-neighbor hook for the host plane: inflates every reported wait
  /// by `factor` (>= 1) in subsequent CollectSample()s, modeling the CPU
  /// throttling a saturated host imposes on its co-located tenants.
  /// Exactly 1.0 is an identity — samples are bit-identical to a run
  /// without the hook, preserving the null-host-plan digest contract.
  void SetHostThrottle(double factor);
  double host_throttle() const { return host_throttle_; }

  /// Balloon override: caps effective memory below the container's
  /// allocation (used by the balloon controller's gradual shrink).
  /// Passing a value >= the container's memory clears the override.
  void SetMemoryLimitMb(double mb);
  void ClearMemoryLimit();
  double effective_memory_mb() const;

  /// Builds the telemetry sample for the period since the previous call
  /// (or construction) and resets period accumulators.
  telemetry::TelemetrySample CollectSample();

  /// Registers the engine instrument block on `ob`'s registry (late,
  /// idempotent), re-sizes the primary shard, and wires every component to
  /// record into it. Setup-time only; nullptr is a no-op (metrics stay
  /// off, recording remains one predictable branch per site).
  void EnableObservability(obs::Observability* ob);
  const EngineMetrics& metrics() const { return metrics_; }

  const container::ContainerSpec& current_container() const {
    return container_;
  }
  const BufferPool& buffer_pool() const { return *buffer_pool_; }
  const LockManager& lock_manager() const { return *locks_; }
  EventQueue* events() const { return events_; }

  /// Engine-lifetime counters.
  uint64_t requests_submitted() const { return requests_submitted_; }
  uint64_t requests_completed() const { return requests_completed_; }
  uint64_t requests_errored() const { return requests_errored_; }
  /// Requests submitted but not yet completed.
  uint64_t requests_in_flight() const {
    return requests_submitted_ - requests_completed_;
  }

 private:
  /// Per-request execution state, one slab slot per request in flight.
  struct RequestState {
    RequestSpec spec;
    SimTime arrival;
    CompletionHook done;
    int batches_total = 1;
    int batch_index = 0;
    double cpu_chunk_sec = 0.0;  // CPU work per interleave round
    int pages_per_batch = 0;
    int pages_remainder = 0;
    telemetry::WaitClass io_wait = telemetry::WaitClass::kDiskIo;
    bool lock_held = false;
    double granted_mb = 0.0;
  };
  /// The engine's own record events; `slot` is the request.
  enum EventKind : uint16_t { kThinkDone, kDelayDone };

  // Lifecycle steps. Each may run other requests to completion (and their
  // hooks may submit), so a step reads its state by slot and touches none
  // after handing off to the next.
  void AcquireGrant(uint32_t slot);
  void AcquireLock(uint32_t slot);
  void RunBatch(uint32_t slot);
  void DoPageAccesses(uint32_t slot);
  void MaybeLatch(uint32_t slot);
  void WriteLog(uint32_t slot);
  void Finish(uint32_t slot, bool error);
  void AddWait(telemetry::WaitClass wc, Duration wait);
  void ApplyMemory();

  void OnEvent(const Event& event) override;
  void OnServed(const ServerQueue& queue, uint32_t slot, Duration queue_wait,
                Duration service_time) override;
  void OnLockResolved(uint32_t slot, bool acquired, Duration wait) override;
  void OnMemoryGranted(uint32_t slot, Duration wait,
                       double granted_mb) override;

  EventQueue* events_;
  uint16_t handler_id_ = 0;
  EngineOptions options_;
  container::ContainerSpec container_;
  /// Resize staged by BeginResize, applied by CompleteResize.
  std::optional<container::ContainerSpec> staged_resize_;
  Rng rng_;
  CompletionHook completion_listener_;

  std::unique_ptr<ServerQueue> cpu_;
  std::unique_ptr<ServerQueue> disk_;
  std::unique_ptr<ServerQueue> log_;
  std::unique_ptr<BufferPool> buffer_pool_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<MemoryBroker> memory_;
  Slab<RequestState> requests_;

  double memory_limit_mb_ = -1.0;  // balloon override; <0 = none
  double host_throttle_ = 1.0;     // host-plane wait inflation; 1 = off

  EngineMetrics metrics_;
  obs::MetricSink metric_sink_;

  // Period accumulators (reset by CollectSample()).
  SimTime period_start_ = SimTime::Zero();
  std::array<double, telemetry::kNumWaitClasses> period_wait_ms_{};
  stats::LatencyHistogram period_latency_{0.01, 1e8, 48};
  int64_t period_started_ = 0;
  int64_t period_completed_ = 0;
  int64_t period_physical_reads_ = 0;

  // Lifetime counters.
  uint64_t requests_submitted_ = 0;
  uint64_t requests_completed_ = 0;
  uint64_t requests_errored_ = 0;
};

}  // namespace dbscale::engine

#endif  // DBSCALE_ENGINE_ENGINE_H_
