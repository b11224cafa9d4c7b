// Exporters for the observability layer: JSONL span trees, Prometheus
// text-format metrics, CSV metrics — plus FNV-1a digests over the
// canonical exported bytes (the determinism tests compare these across
// thread counts and runs).
//
// Exporting is report-time code: it allocates freely and is never on the
// per-interval record path.

#ifndef DBSCALE_OBS_EXPORT_H_
#define DBSCALE_OBS_EXPORT_H_

#include <cstdint>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace dbscale::obs {

/// Appends one JSON object per span, one line per span, intervals oldest
/// first. Schema (stable; validated by tools/obs/check_obs_output.py):
///   {"interval":<int>,"span":<id>,"parent":<id|null>,"name":"...",
///    "start_us":<int>,"end_us":<int>,"attrs":{"k":<num|"str">,...}}
void AppendSpansJsonl(const TraceRecorder& recorder, std::string& out);

/// Appends Prometheus text format: # HELP/# TYPE per metric family, then
/// samples. Histograms emit cumulative <name>_bucket{le="..."} series plus
/// _sum and _count. Never-set gauges print 0.
void AppendPrometheus(const MetricRegistry& registry,
                      const MetricShard& shard, std::string& out);

/// Appends CSV: header `metric,kind,le,value`; histograms expand to
/// cumulative bucket rows (le = bound or +Inf) plus sum and count rows.
void AppendMetricsCsv(const MetricRegistry& registry,
                      const MetricShard& shard, std::string& out);

/// FNV-1a 64-bit over the canonical Prometheus export.
uint64_t MetricsDigest(const MetricRegistry& registry,
                       const MetricShard& shard);

/// FNV-1a 64-bit over the canonical JSONL span export.
uint64_t TraceDigest(const TraceRecorder& recorder);

}  // namespace dbscale::obs

#endif  // DBSCALE_OBS_EXPORT_H_
