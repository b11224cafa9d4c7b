// Streaming fleet aggregates: fixed-bucket histograms instead of
// materialized per-tenant telemetry vectors.
//
// Every fleet run folds each emission into a FleetAggregate the moment the
// shared per-tenant step (fleet_scale.cc) produces it. The exact path
// (fleet_sim.h) also keeps every hourly record and inter-event gap — fine
// at 10^3..10^4 tenants, hopeless at 10^6 (48M hourly records/day would
// dominate memory and merge time) — while the streaming runner throws the
// record away. All counts are exact, not sketches:
//
//   * inter-event gaps are multiples of the 5-minute interval, so a count
//     per integer gap-in-intervals loses nothing vs the pooled vector;
//   * step sizes and changes-per-tenant are small integers;
//   * hourly medians are reals, so they are bucketed (1%-wide utilization
//     and wait-share buckets, power-of-two wait buckets) — enough for the
//     Figure 2/4/6-style fractions and calibration-band percentiles the
//     analyses consume.
//
// Determinism contract: integer counts are addition-order independent, so
// a streaming run merged in block order matches the FromTelemetry oracle
// exactly; double sums (util_sum etc.) depend on fold order and are only
// reproducible between runs with the same (block_size, epoch_intervals).
// The `digest` is chained, not folded here: the scale runner hashes each
// TENANT's emission stream (always in ascending interval order, so epoch
// slicing cannot reorder it), chains tenant digests into the block digest
// in tenant order, and MergeFrom chains block digests in merge order —
// bit-identical at any thread count, any epoch length, and across
// checkpoint/resume.

#ifndef DBSCALE_FLEET_FLEET_AGGREGATE_H_
#define DBSCALE_FLEET_FLEET_AGGREGATE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/fnv.h"
#include "src/container/container.h"
#include "src/fleet/fleet_sim.h"

namespace dbscale::fleet {

/// \brief Exact streaming aggregate of one fleet run (or one tenant
/// block's share of it). Plain data plus fold/merge/query helpers, like
/// FleetTelemetry.
struct FleetAggregate {
  /// 1%-wide buckets [0,1),[1,2),..,[99,100) plus a final bucket for 100
  /// (utilization is capped at 100, wait shares sum to 100).
  static constexpr size_t kPctBuckets = 101;
  /// Power-of-two wait buckets: bucket 0 holds v <= 0, bucket b >= 1 holds
  /// 2^(b-10) <= v < 2^(b-9) (so bucket 1 starts at ~0.001 ms), clamped
  /// above into the last bucket (~2^43 ms).
  static constexpr size_t kWaitBuckets = 54;
  /// Changes-per-tenant counts are exact up to this; busier tenants land
  /// in the final bucket.
  static constexpr int kMaxChangesTracked = 4096;

  /// Per-resource-dimension histograms over the hourly medians. Waits are
  /// split by the hour's utilization into the calibration bands the paper
  /// uses (Figure 6): low-utilization hours (< 30%) and high-utilization
  /// hours (> 70%); mid-band hours count only toward the unsplit totals.
  struct ResourceAgg {
    std::array<uint64_t, kPctBuckets> util{};
    std::array<uint64_t, kWaitBuckets> wait_ms{};
    std::array<uint64_t, kPctBuckets> wait_pct{};
    std::array<uint64_t, kWaitBuckets> wait_per_req{};
    std::array<uint64_t, kWaitBuckets> wait_per_req_low_util{};
    std::array<uint64_t, kWaitBuckets> wait_per_req_high_util{};
    double util_sum = 0.0;
    double wait_ms_sum = 0.0;
  };

  // -- Shape (fixed by Init) ----------------------------------------------
  int num_rungs = 0;
  int num_intervals = 0;

  // -- Counters -----------------------------------------------------------
  uint64_t tenants = 0;
  uint64_t hourly_records = 0;
  uint64_t total_changes = 0;
  uint64_t resize_failures = 0;
  uint64_t resize_retries = 0;

  /// |rung step| counts per change event; index min(step, num_rungs),
  /// index 0 unused (same convention as FleetTelemetry).
  std::vector<uint64_t> step_size_counts;
  /// Count per inter-event gap in intervals (gap = multiples of 5 min;
  /// index 0 unused, max possible gap is num_intervals - 1).
  std::vector<uint64_t> inter_event_gap_counts;
  /// Count of tenants by total change count, index min(n, kMaxChangesTracked).
  std::vector<uint64_t> changes_per_tenant_counts;

  std::array<ResourceAgg, container::kNumResources> resources{};

  /// Chain of per-tenant stream digests (see header comment). Left at the
  /// FNV offset basis by FromTelemetry — only streaming runs produce one.
  uint64_t digest = 14695981039346656037ULL;

  /// Utilization band bounds for the wait split (CalibratorOptions
  /// defaults).
  static constexpr double kLowUtilBelowPct = 30.0;
  static constexpr double kHighUtilAbovePct = 70.0;

  /// Sizes the count vectors for a catalog with `num_rungs` rungs and a run
  /// of `num_intervals` intervals. Must be called before folding; shapes
  /// must match for MergeFrom.
  void Init(int num_rungs, int num_intervals);

  static size_t PctBucket(double v);
  static size_t WaitBucket(double v);

  // -- Fold paths (allocation-free) ---------------------------------------
  void AddHourlyRecord(const HourlyRecord& record);
  /// One container-change event. `gap_intervals` <= 0 means "no previous
  /// event for this tenant" (only the step is counted), matching the exact
  /// path's inter-event bookkeeping.
  void AddChangeEvent(int step, int gap_intervals);
  /// One tenant's end-of-run change total.
  void AddTenantChanges(int num_changes);
  /// Chains a finished per-tenant stream digest onto this aggregate's
  /// digest; call in tenant order.
  void ChainDigest(uint64_t value);

  /// Adds `other` into this aggregate (shapes must match) and chains
  /// other's digest onto this one. Merging per-block aggregates in block
  /// order into a fresh aggregate yields the run's canonical digest.
  void MergeFrom(const FleetAggregate& other);

  // -- Queries ------------------------------------------------------------
  double OneStepFraction() const;
  double AtMostTwoStepFraction() const;

  /// Oracle builder: folds a materialized exact-path FleetTelemetry into an
  /// aggregate, so tests can check the materialized records against a
  /// streaming run. Integer counts match a streaming run over the same fleet
  /// exactly; double sums match to rounding; the digest is NOT comparable
  /// (different fold order).
  static FleetAggregate FromTelemetry(const FleetTelemetry& telemetry,
                                      int num_rungs);
};

}  // namespace dbscale::fleet

#endif  // DBSCALE_FLEET_FLEET_AGGREGATE_H_
