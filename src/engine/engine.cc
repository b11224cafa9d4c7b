#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace dbscale::engine {

namespace {

using container::ContainerSpec;
using container::ResourceKind;
using telemetry::WaitClass;

int CpuServers(double cores) {
  return std::max(1, static_cast<int>(std::ceil(cores)));
}

}  // namespace

DatabaseEngine::DatabaseEngine(EventQueue* events,
                               const EngineOptions& options,
                               const ContainerSpec& initial_container,
                               Rng rng)
    : events_(events),
      options_(options),
      container_(initial_container),
      rng_(rng),
      period_start_(events->Now()) {
  DBSCALE_CHECK(events != nullptr);
  DBSCALE_CHECK(options.database_mb >= options.working_set_mb);
  DBSCALE_CHECK(options.buffer_pool_fraction > 0.0 &&
                options.buffer_pool_fraction <= 1.0);
  DBSCALE_CHECK(options.max_io_batches >= 1);
  handler_id_ = events_->AddHandler(this);

  // The components report to the engine's private client bases.
  ServerQueue::Client* served = this;
  LockManager::Client* locked = this;
  MemoryBroker::Client* granted = this;
  const container::ResourceVector& r = container_.resources;
  cpu_ = std::make_unique<ServerQueue>(
      events_, "cpu", CpuServers(r.cpu_cores),
      r.cpu_cores / CpuServers(r.cpu_cores), served);
  disk_ =
      std::make_unique<ServerQueue>(events_, "disk", 1, r.disk_iops, served);
  log_ = std::make_unique<ServerQueue>(events_, "log", 1, r.log_mbps, served);
  buffer_pool_ = std::make_unique<BufferPool>(
      MbToPages(effective_memory_mb() * options_.buffer_pool_fraction),
      MbToPages(options_.working_set_mb), MbToPages(options_.database_mb),
      &rng_);
  locks_ = std::make_unique<LockManager>(events_, options_.num_hot_rows,
                                         options_.lock_timeout, locked);
  memory_ = std::make_unique<MemoryBroker>(
      events_, effective_memory_mb() * (1.0 - options_.buffer_pool_fraction),
      granted);
}

void DatabaseEngine::EnableObservability(obs::Observability* ob) {
  if (ob == nullptr) return;
  metrics_ = EngineMetrics::Register(&ob->registry());
  ob->AttachPrimary();
  metric_sink_ = obs::MetricSink{&ob->primary()};
  cpu_->SetMetrics(metric_sink_, metrics_.cpu_jobs_total,
                   metrics_.cpu_queue_wait_ms);
  disk_->SetMetrics(metric_sink_, metrics_.disk_jobs_total,
                    metrics_.disk_queue_wait_ms);
  log_->SetMetrics(metric_sink_, metrics_.log_jobs_total,
                   metrics_.log_queue_wait_ms);
  buffer_pool_->SetMetrics(metric_sink_, metrics_.buffer_pool_hits_total,
                           metrics_.buffer_pool_misses_total);
  locks_->SetMetrics(metric_sink_, metrics_.lock_grants_total,
                     metrics_.lock_timeouts_total, metrics_.lock_wait_ms);
  memory_->SetMetrics(metric_sink_, metrics_.memory_grants_total,
                      metrics_.memory_grant_wait_ms);
}

double DatabaseEngine::effective_memory_mb() const {
  double container_mb = container_.resources.memory_mb;
  if (memory_limit_mb_ >= 0.0) {
    return std::min(container_mb, memory_limit_mb_);
  }
  return container_mb;
}

Status DatabaseEngine::BeginResize(const ContainerSpec& spec) {
  if (staged_resize_.has_value()) {
    return Status::FailedPrecondition(
        "a resize is already in flight (one actuation channel)");
  }
  staged_resize_ = spec;
  return Status::OK();
}

Status DatabaseEngine::CompleteResize() {
  if (!staged_resize_.has_value()) {
    return Status::FailedPrecondition("no resize staged");
  }
  container_ = *staged_resize_;
  staged_resize_.reset();
  const container::ResourceVector& r = container_.resources;
  cpu_->SetCapacity(CpuServers(r.cpu_cores),
                    r.cpu_cores / CpuServers(r.cpu_cores));
  disk_->SetCapacity(1, r.disk_iops);
  log_->SetCapacity(1, r.log_mbps);
  // A container change resets any balloon override: the new allocation is
  // authoritative.
  memory_limit_mb_ = -1.0;
  ApplyMemory();
  return Status::OK();
}

Status DatabaseEngine::AbortResize() {
  if (!staged_resize_.has_value()) {
    return Status::FailedPrecondition("no resize staged");
  }
  staged_resize_.reset();
  return Status::OK();
}

void DatabaseEngine::SetHostThrottle(double factor) {
  DBSCALE_CHECK(factor >= 1.0);
  host_throttle_ = factor;
}

void DatabaseEngine::SetMemoryLimitMb(double mb) {
  DBSCALE_CHECK(mb >= 0.0);
  if (mb >= container_.resources.memory_mb) {
    memory_limit_mb_ = -1.0;
  } else {
    memory_limit_mb_ = mb;
  }
  ApplyMemory();
}

void DatabaseEngine::ClearMemoryLimit() {
  memory_limit_mb_ = -1.0;
  ApplyMemory();
}

void DatabaseEngine::ApplyMemory() {
  const double mb = effective_memory_mb();
  buffer_pool_->SetCapacity(MbToPages(mb * options_.buffer_pool_fraction));
  memory_->SetWorkspace(mb * (1.0 - options_.buffer_pool_fraction));
}

// dbscale-hot
void DatabaseEngine::AddWait(WaitClass wc, Duration wait) {
  if (wait > Duration::Zero()) {
    const double ms = wait.ToMillis();
    period_wait_ms_[static_cast<size_t>(wc)] += ms;
    metric_sink_.Add(
        metrics_.wait_ms_base + static_cast<obs::MetricId>(wc), ms);
  }
}

// dbscale-hot
void DatabaseEngine::Submit(const RequestSpec& spec, CompletionHook done) {
  const uint32_t slot = requests_.Acquire();
  RequestState& rs = requests_[slot];
  rs.spec = spec;
  rs.arrival = events_->Now();
  rs.done = std::move(done);
  rs.batch_index = 0;
  rs.lock_held = false;
  rs.granted_mb = 0.0;

  // Partition the request's work into CPU/I-O interleave rounds.
  rs.batches_total = spec.page_accesses > 0
                         ? std::min(options_.max_io_batches, spec.page_accesses)
                         : 1;
  rs.cpu_chunk_sec =
      std::max(spec.cpu_ms, 0.01) / 1000.0 / rs.batches_total;
  rs.pages_per_batch =
      spec.page_accesses > 0 ? spec.page_accesses / rs.batches_total : 0;
  rs.pages_remainder =
      spec.page_accesses > 0 ? spec.page_accesses % rs.batches_total : 0;

  ++requests_submitted_;
  ++period_started_;
  AcquireGrant(slot);
}

// Lifecycle ordering: grant -> read/compute batches -> hot-row lock (held
// through application think time and the commit's log write) -> finish.
// Acquiring the lock *after* the resource-bound work keeps hold times
// dominated by application time, so lock contention — unlike every other
// wait — does not shrink when the container grows. That is the paper's
// "bottleneck beyond resources" (Figure 13).

// dbscale-hot
void DatabaseEngine::OnEvent(const Event& event) {
  if (event.kind == kThinkDone) {
    WriteLog(event.slot);
  } else {
    RunBatch(event.slot);
  }
}

// dbscale-hot
void DatabaseEngine::OnServed(const ServerQueue& queue, uint32_t slot,
                              Duration queue_wait, Duration service_time) {
  if (&queue == cpu_.get()) {
    // Signal wait: runnable-but-unscheduled time plus the stretch from
    // running on a sub-core allocation.
    const Duration stretch =
        service_time - Duration::Seconds(requests_[slot].cpu_chunk_sec);
    AddWait(WaitClass::kCpu,
            queue_wait +
                (stretch > Duration::Zero() ? stretch : Duration::Zero()));
    DoPageAccesses(slot);
  } else if (&queue == disk_.get()) {
    AddWait(requests_[slot].io_wait, queue_wait);
    MaybeLatch(slot);
  } else {
    // Log-write waits (WRITELOG) include the flush itself.
    AddWait(WaitClass::kLogIo, queue_wait + service_time);
    Finish(slot, /*error=*/false);
  }
}

// dbscale-hot
void DatabaseEngine::OnLockResolved(uint32_t slot, bool acquired,
                                    Duration wait) {
  AddWait(WaitClass::kLock, wait);
  if (!acquired) {
    // Lock-wait timeout: the transaction aborts.
    Finish(slot, /*error=*/true);
    return;
  }
  RequestState& rs = requests_[slot];
  rs.lock_held = true;
  if (rs.spec.lock_hold_extra_ms > 0.0) {
    // Application think time inside the transaction: pure latency (not an
    // engine wait), spent while holding the lock.
    const Duration think = Duration::Millis(1) * rs.spec.lock_hold_extra_ms;
    events_->Schedule(events_->Now() + think, handler_id_, kThinkDone, slot);
    return;
  }
  WriteLog(slot);
}

// dbscale-hot
void DatabaseEngine::OnMemoryGranted(uint32_t slot, Duration wait,
                                     double granted_mb) {
  requests_[slot].granted_mb = granted_mb;
  AddWait(WaitClass::kMemory, wait);
  RunBatch(slot);
}

// dbscale-hot
void DatabaseEngine::AcquireGrant(uint32_t slot) {
  const double mb = requests_[slot].spec.grant_mb;
  if (mb <= 0.0 || memory_->workspace_mb() <= 0.0) {
    RunBatch(slot);
    return;
  }
  memory_->Acquire(mb, slot);
}

// dbscale-hot
void DatabaseEngine::AcquireLock(uint32_t slot) {
  RequestState& rs = requests_[slot];
  if (rs.spec.lock_row < 0) {
    WriteLog(slot);
    return;
  }
  rs.spec.lock_row %= options_.num_hot_rows;
  locks_->Acquire(rs.spec.lock_row, slot);
}

// dbscale-hot
void DatabaseEngine::RunBatch(uint32_t slot) {
  const RequestState& rs = requests_[slot];
  if (rs.batch_index >= rs.batches_total) {
    AcquireLock(slot);
    return;
  }
  cpu_->Submit(rs.cpu_chunk_sec, slot);
}

// dbscale-hot
void DatabaseEngine::DoPageAccesses(uint32_t slot) {
  RequestState& rs = requests_[slot];
  int pages = rs.pages_per_batch;
  if (rs.batch_index == 0) pages += rs.pages_remainder;
  ++rs.batch_index;

  int misses = 0;
  bool pressure = buffer_pool_->UnderMemoryPressure();
  for (int i = 0; i < pages; ++i) {
    const bool hot = rng_.Bernoulli(rs.spec.hot_access_fraction);
    if (!buffer_pool_->Access(hot)) ++misses;
  }
  period_physical_reads_ += misses;

  if (misses == 0) {
    MaybeLatch(slot);
    return;
  }
  // One aggregated disk submission for the batch's misses. Only the
  // *queueing* delay counts as wait: the per-I/O pacing of the container's
  // IOPS quota is the device's nominal service, and counting it would make
  // every I/O-bearing request look wait-bound on small containers. Misses
  // caused by a pool smaller than the working set are attributed to the
  // buffer pool (memory pressure); others are plain disk I/O.
  rs.io_wait = pressure ? WaitClass::kBufferPool : WaitClass::kDiskIo;
  disk_->Submit(static_cast<double>(misses), slot);
}

// Latch and background interference, as short pure delays before the
// request's next batch.
// dbscale-hot
void DatabaseEngine::MaybeLatch(uint32_t slot) {
  Duration delay = Duration::Zero();
  if (rng_.Bernoulli(options_.latch_probability)) {
    Duration latch =
        Duration::Millis(1) * rng_.Exponential(options_.latch_mean_ms);
    AddWait(WaitClass::kLatch, latch);
    delay += latch;
  }
  if (rng_.Bernoulli(options_.system_wait_probability)) {
    Duration sys =
        Duration::Millis(1) * rng_.Exponential(options_.system_wait_mean_ms);
    AddWait(WaitClass::kSystem, sys);
    delay += sys;
  }
  if (delay > Duration::Zero()) {
    events_->Schedule(events_->Now() + delay, handler_id_, kDelayDone, slot);
  } else {
    RunBatch(slot);
  }
}

// dbscale-hot
void DatabaseEngine::WriteLog(uint32_t slot) {
  const double log_kb = requests_[slot].spec.log_kb;
  if (log_kb <= 0.0) {
    Finish(slot, /*error=*/false);
    return;
  }
  log_->Submit(log_kb / 1024.0, slot);
}

// The slot is recycled before anything is released: releasing the lock or
// the grant can run other requests to completion, and their hooks may
// submit new requests into this slot or grow the slab.
// dbscale-hot
void DatabaseEngine::Finish(uint32_t slot, bool error) {
  RequestState& rs = requests_[slot];
  const bool lock_held = rs.lock_held;
  const int lock_row = rs.spec.lock_row;
  const double granted_mb = rs.granted_mb;
  RequestResult result;
  result.arrival = rs.arrival;
  result.completion = events_->Now();
  result.error = error;
  result.class_id = rs.spec.class_id;
  const CompletionHook done = std::move(rs.done);
  requests_.Release(slot);

  if (lock_held) locks_->Release(lock_row);
  if (granted_mb > 0.0) memory_->Release(granted_mb);
  ++requests_completed_;
  ++period_completed_;
  if (error) ++requests_errored_;

  period_latency_.Add(result.latency().ToMillis());
  metric_sink_.Add(metrics_.requests_completed_total, 1.0);
  if (error) metric_sink_.Add(metrics_.requests_errored_total, 1.0);
  metric_sink_.Observe(metrics_.request_latency_ms,
                       result.latency().ToMillis());
  if (done) done(result);
  if (completion_listener_) completion_listener_(result);
}

void DatabaseEngine::SetCompletionListener(CompletionHook listener) {
  completion_listener_ = std::move(listener);
}

void DatabaseEngine::PrewarmBufferPool() { buffer_pool_->PrewarmHotSet(); }

telemetry::TelemetrySample DatabaseEngine::CollectSample() {
  telemetry::TelemetrySample sample;
  sample.period_start = period_start_;
  sample.period_end = events_->Now();

  const auto cpu_usage = cpu_->ConsumeUsage();
  const auto disk_usage = disk_->ConsumeUsage();
  const auto log_usage = log_->ConsumeUsage();
  auto util_at = [&sample](ResourceKind kind, double pct) {
    sample.utilization_pct[static_cast<size_t>(kind)] =
        std::clamp(pct, 0.0, 100.0);
  };
  util_at(ResourceKind::kCpu, cpu_usage.utilization_pct());
  util_at(ResourceKind::kDiskIo, disk_usage.utilization_pct());
  util_at(ResourceKind::kLogIo, log_usage.utilization_pct());
  const double memory_used =
      buffer_pool_->used_mb() + memory_->in_use_mb();
  const double memory_alloc = effective_memory_mb();
  util_at(ResourceKind::kMemory,
          memory_alloc > 0.0 ? 100.0 * memory_used / memory_alloc : 0.0);

  sample.wait_ms = period_wait_ms_;
  if (host_throttle_ != 1.0) {
    // Co-located demand beyond the host's capacity stretches every wait;
    // the guard keeps throttle-free runs bit-identical (a *= 1.0 could
    // still perturb signed zeros and is a needless pass).
    for (double& w : sample.wait_ms) w *= host_throttle_;
  }
  sample.requests_started = period_started_;
  sample.requests_completed = period_completed_;
  if (period_latency_.count() > 0) {
    sample.latency_avg_ms = period_latency_.mean();
    sample.latency_p95_ms = period_latency_.ValueAtPercentile(95.0);
    sample.latency_max_ms = period_latency_.max_seen();
  }
  sample.memory_used_mb = memory_used;
  sample.memory_active_mb =
      PagesToMb(buffer_pool_->hot_cached()) / options_.buffer_pool_fraction +
      memory_->in_use_mb();
  sample.physical_reads = period_physical_reads_;
  sample.allocation = container_.resources;
  // Report the ballooned allocation so the memory-utilization signal tracks
  // the effective limit.
  sample.allocation.memory_mb = memory_alloc;
  sample.container_id = container_.id;

  // Reset period accumulators.
  period_start_ = events_->Now();
  period_wait_ms_.fill(0.0);
  period_latency_.Reset();
  period_started_ = 0;
  period_completed_ = 0;
  period_physical_reads_ = 0;
  return sample;
}

}  // namespace dbscale::engine
