#include "src/ingest/wire_sample.h"

#include <cmath>

#include "src/container/container.h"
#include "src/telemetry/wait_class.h"

namespace dbscale::ingest {

using container::ResourceKind;
using telemetry::WaitClass;

namespace {
constexpr size_t Ri(ResourceKind kind) { return static_cast<size_t>(kind); }
constexpr size_t Wi(WaitClass wc) { return static_cast<size_t>(wc); }
}  // namespace

// dbscale-hot: runs once per published sample on the producer path.
WireSample MakeWireSample(uint64_t tenant_id,
                          const telemetry::TelemetrySample& sample) {
  WireSample w;
  w.tenant_id = tenant_id;
  w.period_start_us = sample.period_start.ToMicros();
  w.period_end_us = sample.period_end.ToMicros();

  w.cpu_usage_pct = sample.utilization_pct[Ri(ResourceKind::kCpu)];
  w.cpu_limit_cores = sample.allocation.cpu_cores;
  w.cpu_wait_ms = sample.wait_ms[Wi(WaitClass::kCpu)];

  w.memory_usage_pct = sample.utilization_pct[Ri(ResourceKind::kMemory)];
  w.rss_mb = sample.memory_used_mb;
  w.anon_memory_mb = sample.memory_active_mb;
  w.memory_limit_mb = sample.allocation.memory_mb;
  w.major_page_faults = sample.physical_reads;

  w.io_usage_pct = sample.utilization_pct[Ri(ResourceKind::kDiskIo)];
  w.io_ops_limit = sample.allocation.disk_iops;
  w.io_wait_ms = sample.wait_ms[Wi(WaitClass::kDiskIo)];

  w.log_usage_pct = sample.utilization_pct[Ri(ResourceKind::kLogIo)];
  w.log_limit_mbps = sample.allocation.log_mbps;
  w.log_wait_ms = sample.wait_ms[Wi(WaitClass::kLogIo)];

  w.lock_wait_ms = sample.wait_ms[Wi(WaitClass::kLock)];
  w.latch_wait_ms = sample.wait_ms[Wi(WaitClass::kLatch)];
  w.memory_grant_wait_ms = sample.wait_ms[Wi(WaitClass::kMemory)];
  w.buffer_pool_wait_ms = sample.wait_ms[Wi(WaitClass::kBufferPool)];
  w.system_wait_ms = sample.wait_ms[Wi(WaitClass::kSystem)];

  w.requests_started = sample.requests_started;
  w.requests_completed = sample.requests_completed;
  w.latency_avg_ms = sample.latency_avg_ms;
  w.latency_p95_ms = sample.latency_p95_ms;
  w.latency_max_ms = sample.latency_max_ms;

  w.container_id = sample.container_id;
  return w;
}

// dbscale-hot: runs once per drained sample on the drainer route path.
telemetry::TelemetrySample ToTelemetrySample(const WireSample& wire) {
  telemetry::TelemetrySample s;
  s.period_start = SimTime::FromMicros(wire.period_start_us);
  s.period_end = SimTime::FromMicros(wire.period_end_us);

  s.utilization_pct[Ri(ResourceKind::kCpu)] = wire.cpu_usage_pct;
  s.utilization_pct[Ri(ResourceKind::kMemory)] = wire.memory_usage_pct;
  s.utilization_pct[Ri(ResourceKind::kDiskIo)] = wire.io_usage_pct;
  s.utilization_pct[Ri(ResourceKind::kLogIo)] = wire.log_usage_pct;

  s.wait_ms[Wi(WaitClass::kCpu)] = wire.cpu_wait_ms;
  s.wait_ms[Wi(WaitClass::kDiskIo)] = wire.io_wait_ms;
  s.wait_ms[Wi(WaitClass::kLogIo)] = wire.log_wait_ms;
  s.wait_ms[Wi(WaitClass::kLock)] = wire.lock_wait_ms;
  s.wait_ms[Wi(WaitClass::kLatch)] = wire.latch_wait_ms;
  s.wait_ms[Wi(WaitClass::kMemory)] = wire.memory_grant_wait_ms;
  s.wait_ms[Wi(WaitClass::kBufferPool)] = wire.buffer_pool_wait_ms;
  s.wait_ms[Wi(WaitClass::kSystem)] = wire.system_wait_ms;

  s.requests_started = wire.requests_started;
  s.requests_completed = wire.requests_completed;
  s.latency_avg_ms = wire.latency_avg_ms;
  s.latency_p95_ms = wire.latency_p95_ms;
  s.latency_max_ms = wire.latency_max_ms;
  s.memory_used_mb = wire.rss_mb;
  s.memory_active_mb = wire.anon_memory_mb;
  s.physical_reads = wire.major_page_faults;

  s.allocation.cpu_cores = wire.cpu_limit_cores;
  s.allocation.memory_mb = wire.memory_limit_mb;
  s.allocation.disk_iops = wire.io_ops_limit;
  s.allocation.log_mbps = wire.log_limit_mbps;
  s.container_id = wire.container_id;
  return s;
}

// dbscale-hot: runs once per drained sample on the drainer route path.
bool WireSampleLooksValid(const WireSample& wire) {
  // fault::SampleLooksValid's figures in its order: utilization, waits by
  // class, the latency aggregates, memory used and active.
  const double figures[] = {
      wire.cpu_usage_pct,        wire.memory_usage_pct,
      wire.io_usage_pct,         wire.log_usage_pct,
      wire.cpu_wait_ms,          wire.io_wait_ms,
      wire.log_wait_ms,          wire.lock_wait_ms,
      wire.latch_wait_ms,        wire.memory_grant_wait_ms,
      wire.buffer_pool_wait_ms,  wire.system_wait_ms,
      wire.latency_avg_ms,       wire.latency_p95_ms,
      wire.latency_max_ms,       wire.rss_mb,
      wire.anon_memory_mb};
  bool finite = true;
  for (double f : figures) finite &= std::isfinite(f);
  return finite;
}

// dbscale-hot: runs once per stored sample on the drainer route path.
void AppendToStore(const WireSample& wire, telemetry::TelemetryStore& store) {
  telemetry::SampleRow& row = store.AppendRow(
      {wire.cpu_limit_cores, wire.memory_limit_mb, wire.io_ops_limit,
       wire.log_limit_mbps});
  row.period_start = SimTime::FromMicros(wire.period_start_us);
  row.period_end = SimTime::FromMicros(wire.period_end_us);

  row.utilization_pct[Ri(ResourceKind::kCpu)] = wire.cpu_usage_pct;
  row.utilization_pct[Ri(ResourceKind::kMemory)] = wire.memory_usage_pct;
  row.utilization_pct[Ri(ResourceKind::kDiskIo)] = wire.io_usage_pct;
  row.utilization_pct[Ri(ResourceKind::kLogIo)] = wire.log_usage_pct;

  row.wait_ms[Wi(WaitClass::kCpu)] = wire.cpu_wait_ms;
  row.wait_ms[Wi(WaitClass::kDiskIo)] = wire.io_wait_ms;
  row.wait_ms[Wi(WaitClass::kLogIo)] = wire.log_wait_ms;
  row.wait_ms[Wi(WaitClass::kLock)] = wire.lock_wait_ms;
  row.wait_ms[Wi(WaitClass::kLatch)] = wire.latch_wait_ms;
  row.wait_ms[Wi(WaitClass::kMemory)] = wire.memory_grant_wait_ms;
  row.wait_ms[Wi(WaitClass::kBufferPool)] = wire.buffer_pool_wait_ms;
  row.wait_ms[Wi(WaitClass::kSystem)] = wire.system_wait_ms;

  row.requests_completed = wire.requests_completed;
  row.latency_avg_ms = wire.latency_avg_ms;
  row.latency_p95_ms = wire.latency_p95_ms;
  row.memory_used_mb = wire.rss_mb;
  row.physical_reads = wire.major_page_faults;
}

}  // namespace dbscale::ingest
