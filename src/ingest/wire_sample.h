// WireSample: the daemon's wire-facing telemetry record.
//
// When the scaler runs as a service, samples arrive from container hosts,
// not from the simulator's in-process collector. The wire struct therefore
// mirrors what a real container host exports — the porto per-container
// stat surface as enumerated by ytsaurus's EStatField (CPU / Memory / IO /
// Network groups) — rather than our internal TelemetrySample layout. Every
// payload field below is annotated with the EStatField it corresponds to;
// fields with no container-host counterpart (engine-internal wait classes,
// request latency aggregates) are grouped separately and documented as
// such — porto cannot see inside the database engine.
//
// The mapping to TelemetrySample is lossless and arithmetic-free in both
// directions: each wire field carries exactly one sample field's bit
// pattern, so ToTelemetrySample(MakeWireSample(t, s)) == s bitwise. That
// bit-exactness is what lets service-mode decision digests be compared
// against sim-loop digests at all.
//
// WireSample is trivially copyable by design: ring slots copy it with
// plain assignment on the hot push/pop path, and the MPSC ring's
// release/acquire protocol (ingest_ring.h) is only correct for types
// without user-defined copy semantics.

#ifndef DBSCALE_INGEST_WIRE_SAMPLE_H_
#define DBSCALE_INGEST_WIRE_SAMPLE_H_

#include <cstdint>
#include <type_traits>

#include "src/telemetry/sample.h"
#include "src/telemetry/store.h"

namespace dbscale::ingest {

/// \brief One sampling period of one tenant's container, as exported by
/// the container host plus the engine's own wait/latency counters.
struct WireSample {
  // --- Routing header (daemon-level, not part of the host stat surface) ---
  /// Fleet-wide tenant identity; the service routes on this.
  uint64_t tenant_id = 0;
  /// Which producer (collector shard / host agent) published the sample.
  uint32_t producer_id = 0;
  /// Reserved; keeps the header 8-byte aligned.
  uint32_t flags = 0;
  /// Per-producer monotone sequence number (0, 1, 2, ... per producer).
  /// The service asserts monotonicity per producer on the drain side.
  uint64_t producer_seq = 0;
  /// Sampling period bounds, microseconds since epoch (SimTime::ToMicros —
  /// int64 microseconds round-trip losslessly).
  int64_t period_start_us = 0;
  int64_t period_end_us = 0;

  // --- CPU group (EStatField: CpuUsage, CpuLimit, CpuWait) ---
  /// CpuUsage over CpuLimit as a percentage (utilization_pct[kCpu]).
  double cpu_usage_pct = 0.0;
  /// CpuLimit, in cores (allocation.cpu_cores).
  double cpu_limit_cores = 0.0;
  /// CpuWait: runnable-but-not-scheduled wait, ms (wait_ms[kCpu]).
  double cpu_wait_ms = 0.0;

  // --- Memory group (EStatField: Rss, AnonMemoryUsage, MemoryLimit,
  //     MajorPageFaults) ---
  /// MemoryUsage over MemoryLimit as a percentage
  /// (utilization_pct[kMemory]).
  double memory_usage_pct = 0.0;
  /// Rss: memory the engine actually holds, MB (memory_used_mb).
  double rss_mb = 0.0;
  /// AnonMemoryUsage analog: the active working set the workload needs,
  /// MB (memory_active_mb).
  double anon_memory_mb = 0.0;
  /// MemoryLimit, MB (allocation.memory_mb).
  double memory_limit_mb = 0.0;
  /// MajorPageFaults analog: data-page reads that missed the buffer pool
  /// and went to disk (physical_reads).
  int64_t major_page_faults = 0;

  // --- IO group (EStatField: IOReadOps/IOOps over IOOpsLimit,
  //     IOWaitTime) ---
  /// IOOps over IOOpsLimit as a percentage (utilization_pct[kDiskIo]).
  double io_usage_pct = 0.0;
  /// IOOpsLimit, IOPS (allocation.disk_iops).
  double io_ops_limit = 0.0;
  /// IOWaitTime: data-page I/O queueing, ms (wait_ms[kDiskIo]).
  double io_wait_ms = 0.0;

  // --- Log-write group (EStatField: IOWriteByte over IOBytesLimit) ---
  /// Log-write bandwidth used over IOBytesLimit as a percentage
  /// (utilization_pct[kLogIo]).
  double log_usage_pct = 0.0;
  /// IOBytesLimit for the log device, MB/s (allocation.log_mbps).
  double log_limit_mbps = 0.0;
  /// Log-write queueing, ms (wait_ms[kLogIo]).
  double log_wait_ms = 0.0;

  // --- Engine wait classes with no EStatField counterpart: the container
  //     host sees the cgroup, not the engine's lock/latch/grant queues ---
  double lock_wait_ms = 0.0;         ///< wait_ms[kLock]
  double latch_wait_ms = 0.0;        ///< wait_ms[kLatch]
  double memory_grant_wait_ms = 0.0; ///< wait_ms[kMemory]
  double buffer_pool_wait_ms = 0.0;  ///< wait_ms[kBufferPool]
  double system_wait_ms = 0.0;       ///< wait_ms[kSystem]

  // --- Request/latency group (engine-level; porto's nearest analog is
  //     NetRxPackets/NetTxPackets, which count packets, not queries) ---
  int64_t requests_started = 0;
  int64_t requests_completed = 0;
  double latency_avg_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_max_ms = 0.0;

  /// Catalog id of the container the allocation limits describe.
  int32_t container_id = 0;
  int32_t reserved = 0;
};

static_assert(std::is_trivially_copyable_v<WireSample>,
              "ring slots copy WireSample by plain assignment");
static_assert(std::is_standard_layout_v<WireSample>,
              "WireSample is a wire format");

/// Packs `sample` for tenant `tenant_id` onto the wire. Bit-exact: no
/// arithmetic, every field is a plain copy. producer_id / producer_seq are
/// left zero — the producer stamps them at publish time.
WireSample MakeWireSample(uint64_t tenant_id,
                          const telemetry::TelemetrySample& sample);

/// Unpacks the wire payload back into the internal sample layout.
/// Inverse of MakeWireSample: round trips are bitwise identity.
telemetry::TelemetrySample ToTelemetrySample(const WireSample& wire);

/// The ingestion guard on the wire: true when every figure
/// fault::SampleLooksValid checks is finite — the same 17 fields, read in
/// place, so `WireSampleLooksValid(w) == SampleLooksValid(
/// ToTelemetrySample(w))` for every payload.
bool WireSampleLooksValid(const WireSample& wire);

/// Appends the wire payload to `store`, filling the row in place. Bitwise
/// the same as `store.Append(ToTelemetrySample(wire))`, without the
/// intermediate sample.
void AppendToStore(const WireSample& wire, telemetry::TelemetryStore& store);

}  // namespace dbscale::ingest

#endif  // DBSCALE_INGEST_WIRE_SAMPLE_H_
