#include "src/fleet/fleet_aggregate.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace dbscale::fleet {

void FleetAggregate::Init(int catalog_rungs, int run_intervals) {
  DBSCALE_CHECK(catalog_rungs > 0 && run_intervals > 0);
  num_rungs = catalog_rungs;
  num_intervals = run_intervals;
  step_size_counts.assign(static_cast<size_t>(num_rungs) + 1, 0);
  inter_event_gap_counts.assign(static_cast<size_t>(num_intervals), 0);
  changes_per_tenant_counts.assign(
      static_cast<size_t>(kMaxChangesTracked) + 1, 0);
}

size_t FleetAggregate::PctBucket(double v) {
  if (!(v > 0.0)) return 0;
  if (v >= 100.0) return kPctBuckets - 1;
  return static_cast<size_t>(v);
}

size_t FleetAggregate::WaitBucket(double v) {
  if (!(v > 0.0)) return 0;
  const int e = std::ilogb(v);  // floor(log2 v)
  const int bucket = e + 10;
  return static_cast<size_t>(
      std::clamp(bucket, 1, static_cast<int>(kWaitBuckets) - 1));
}

// dbscale-hot: once per tenant-hour across the million-tenant sweep.
void FleetAggregate::AddHourlyRecord(const HourlyRecord& record) {
  for (int ri = 0; ri < container::kNumResources; ++ri) {
    ResourceAgg& agg = resources[static_cast<size_t>(ri)];
    const double util = record.utilization_pct[static_cast<size_t>(ri)];
    const double wait = record.wait_ms[static_cast<size_t>(ri)];
    const double pct = record.wait_pct[static_cast<size_t>(ri)];
    const double wpr = record.wait_ms_per_request[static_cast<size_t>(ri)];
    agg.util[PctBucket(util)] += 1;
    agg.wait_ms[WaitBucket(wait)] += 1;
    agg.wait_pct[PctBucket(pct)] += 1;
    agg.wait_per_req[WaitBucket(wpr)] += 1;
    if (util < kLowUtilBelowPct) {
      agg.wait_per_req_low_util[WaitBucket(wpr)] += 1;
    } else if (util > kHighUtilAbovePct) {
      agg.wait_per_req_high_util[WaitBucket(wpr)] += 1;
    }
    agg.util_sum += util;
    agg.wait_ms_sum += wait;
  }
  ++hourly_records;
}

// dbscale-hot: per rung-change event during streaming aggregation.
void FleetAggregate::AddChangeEvent(int step, int gap_intervals) {
  DBSCALE_CHECK(!step_size_counts.empty());
  step_size_counts[static_cast<size_t>(std::min(step, num_rungs))] += 1;
  ++total_changes;
  if (gap_intervals > 0) {
    const size_t gap = std::min<size_t>(
        static_cast<size_t>(gap_intervals), inter_event_gap_counts.size() - 1);
    inter_event_gap_counts[gap] += 1;
  }
}

// dbscale-hot: once per tenant at end of simulation.
void FleetAggregate::AddTenantChanges(int num_changes) {
  changes_per_tenant_counts[static_cast<size_t>(
      std::min(num_changes, kMaxChangesTracked))] += 1;
  ++tenants;
}

// dbscale-hot: chained into the determinism digest every record.
void FleetAggregate::ChainDigest(uint64_t value) {
  Fnv64Stream h{digest};
  h.U64(value);
  digest = h.value;
}

void FleetAggregate::MergeFrom(const FleetAggregate& other) {
  DBSCALE_CHECK(num_rungs == other.num_rungs &&
                num_intervals == other.num_intervals);
  tenants += other.tenants;
  hourly_records += other.hourly_records;
  total_changes += other.total_changes;
  resize_failures += other.resize_failures;
  resize_retries += other.resize_retries;
  for (size_t i = 0; i < step_size_counts.size(); ++i) {
    step_size_counts[i] += other.step_size_counts[i];
  }
  for (size_t i = 0; i < inter_event_gap_counts.size(); ++i) {
    inter_event_gap_counts[i] += other.inter_event_gap_counts[i];
  }
  for (size_t i = 0; i < changes_per_tenant_counts.size(); ++i) {
    changes_per_tenant_counts[i] += other.changes_per_tenant_counts[i];
  }
  for (size_t ri = 0; ri < resources.size(); ++ri) {
    ResourceAgg& dst = resources[ri];
    const ResourceAgg& src = other.resources[ri];
    for (size_t b = 0; b < kPctBuckets; ++b) {
      dst.util[b] += src.util[b];
      dst.wait_pct[b] += src.wait_pct[b];
    }
    for (size_t b = 0; b < kWaitBuckets; ++b) {
      dst.wait_ms[b] += src.wait_ms[b];
      dst.wait_per_req[b] += src.wait_per_req[b];
      dst.wait_per_req_low_util[b] += src.wait_per_req_low_util[b];
      dst.wait_per_req_high_util[b] += src.wait_per_req_high_util[b];
    }
    dst.util_sum += src.util_sum;
    dst.wait_ms_sum += src.wait_ms_sum;
  }
  Fnv64Stream h{digest};
  h.U64(other.digest);
  digest = h.value;
}

double FleetAggregate::OneStepFraction() const {
  return StepFractionAtOrBelow(step_size_counts, 1);
}

double FleetAggregate::AtMostTwoStepFraction() const {
  return StepFractionAtOrBelow(step_size_counts, 2);
}

FleetAggregate FleetAggregate::FromTelemetry(const FleetTelemetry& telemetry,
                                             int num_rungs) {
  FleetAggregate out;
  out.Init(num_rungs, telemetry.num_intervals);
  for (const HourlyRecord& record : telemetry.hourly) {
    out.AddHourlyRecord(record);
  }
  // The exact path pools steps and gaps separately (not as paired events),
  // so counts are folded directly; total_changes comes from the step
  // counts, which are incremented once per change event.
  out.total_changes = 0;
  for (size_t s = 1; s < telemetry.step_size_counts.size() &&
                     s < out.step_size_counts.size();
       ++s) {
    out.step_size_counts[s] +=
        static_cast<uint64_t>(telemetry.step_size_counts[s]);
    out.total_changes += static_cast<uint64_t>(telemetry.step_size_counts[s]);
  }
  for (const double minutes : telemetry.inter_event_minutes) {
    const long gap = std::lround(minutes / kIntervalMinutes);
    if (gap > 0) {
      const size_t idx = std::min<size_t>(
          static_cast<size_t>(gap), out.inter_event_gap_counts.size() - 1);
      out.inter_event_gap_counts[idx] += 1;
    }
  }
  out.tenants = 0;
  for (const TenantChangeStats& stats : telemetry.tenant_changes) {
    out.changes_per_tenant_counts[static_cast<size_t>(
        std::min(stats.num_changes, kMaxChangesTracked))] += 1;
    ++out.tenants;
  }
  out.resize_failures = telemetry.resize_failures;
  out.resize_retries = telemetry.resize_retries;
  return out;
}

}  // namespace dbscale::fleet
