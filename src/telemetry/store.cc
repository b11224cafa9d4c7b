#include "src/telemetry/store.h"

#include "src/common/check.h"

namespace dbscale::telemetry {

TelemetryStore::TelemetryStore(size_t max_samples)
    : max_samples_(max_samples) {
  DBSCALE_CHECK(max_samples > 0);
}

// dbscale-hot: the sim loop's per-sample append; copies the fields the
// signal windows read into a recycled row.
void TelemetryStore::Append(const TelemetrySample& sample) {
  if (!rows_.empty()) {
    // Periods must be appended in time order.
    DBSCALE_DCHECK(sample.period_end >= back().period_end);
  }
  SampleRow& row = AppendRow(sample.allocation);
  row.period_start = sample.period_start;
  row.period_end = sample.period_end;
  row.utilization_pct = sample.utilization_pct;
  row.wait_ms = sample.wait_ms;
  row.requests_completed = sample.requests_completed;
  row.latency_avg_ms = sample.latency_avg_ms;
  row.latency_p95_ms = sample.latency_p95_ms;
  row.memory_used_mb = sample.memory_used_mb;
  row.physical_reads = sample.physical_reads;
}

// dbscale-hot: runs once per stored sample for every tenant. Grows the
// backing vector only until retention is reached; at capacity it recycles
// the oldest slot in place (no allocation, no element shifting).
SampleRow& TelemetryStore::AppendRow(
    const container::ResourceVector& allocation) {
  allocation_ = allocation;
  if (rows_.size() < max_samples_) return rows_.emplace_back();
  SampleRow& row = rows_[head_];
  ++head_;
  if (head_ == rows_.size()) head_ = 0;
  return row;
}

void TelemetryStore::Clear() {
  rows_.clear();
  head_ = 0;
  allocation_ = container::ResourceVector{};
}

// dbscale-hot: per-decision window extraction; fills caller scratch.
void TelemetryStore::RecentInto(size_t n,
                                std::vector<const SampleRow*>& out) const {
  out.clear();
  size_t start = rows_.size() > n ? rows_.size() - n : 0;
  for (size_t i = start; i < rows_.size(); ++i) {
    out.push_back(&rows_[Phys(i)]);
  }
}

}  // namespace dbscale::telemetry
