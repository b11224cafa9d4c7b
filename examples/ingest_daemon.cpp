// Scaler as a service: the ingest daemon in miniature.
//
// Two producers publish per-tenant telemetry into the allocation-free MPSC
// ring; the ScalerService drains it in batches, routes samples to each
// tenant's sliding-window store, and evaluates billing-interval decisions
// with the real AutoScaler policy under batched evaluation. Demonstrates:
//
//   * the nominal regime: drain cadence keeps up with the feed, so the
//     ring never fills and NOTHING is rejected;
//   * run-twice determinism: the tenant-order decision digest is
//     bit-identical across runs, and identical to the direct-feed serial
//     reference (the sim-loop shape);
//   * the overload regime: a deliberately tiny ring is flooded without
//     draining, so backpressure bites — rejected pushes surface on the
//     producer's and the ring's counters instead of blocking or silently
//     vanishing.
//
// ctest runs it as example_ingest_daemon: it checks digest identity across
// the two runs and against the direct feed, zero rejections at nominal
// rate, and counted rejections that account for every push under
// overload, and exits non-zero naming any contract that broke.

#include <cstdint>
#include <cstdio>
#include <utility>

#include "examples/contracts.h"
#include "src/common/check.h"
#include "src/common/sim_time.h"
#include "src/container/catalog.h"
#include "src/ingest/ingest_ring.h"
#include "src/ingest/producer.h"
#include "src/ingest/scaler_service.h"
#include "src/ingest/wire_sample.h"
#include "src/scaler/autoscaler.h"
#include "src/telemetry/sample.h"

using namespace dbscale;  // NOLINT: example brevity

namespace {

constexpr uint64_t kNumTenants = 8;
constexpr size_t kSamplesPerInterval = 6;
constexpr int kIntervals = 8;
constexpr int64_t kPeriodUs = 5'000'000;  // 5s sampling period

/// Deterministic per-tenant workload: utilization and latency ramp with a
/// tenant-specific phase so different tenants make different decisions.
telemetry::TelemetrySample MakeSample(const container::Catalog& catalog,
                                      uint64_t tenant, int i) {
  telemetry::TelemetrySample s;
  s.period_start = SimTime::FromMicros(i * kPeriodUs);
  s.period_end = SimTime::FromMicros((i + 1) * kPeriodUs);
  const double phase =
      static_cast<double>((static_cast<uint64_t>(i) * 29 + tenant * 17) % 100);
  for (size_t r = 0; r < container::kNumResources; ++r) {
    s.utilization_pct[r] = 25.0 + phase * 0.7;
  }
  s.wait_ms[0] = phase * 2.5;
  s.wait_ms[1] = phase * 1.2;
  s.requests_started = 120 + i % 11;
  s.requests_completed = s.requests_started;
  s.latency_avg_ms = 6.0 + phase * 0.15;
  s.latency_p95_ms = 18.0 + phase * 0.5;
  s.latency_max_ms = 40.0 + phase;
  s.memory_used_mb = 900.0 + phase * 2.0;
  s.memory_active_mb = 450.0 + phase;
  s.physical_reads = 8 + i % 5;
  s.allocation = catalog.rung(3).resources;
  s.container_id = catalog.rung(3).id;
  return s;
}

ingest::ScalerServiceOptions ServiceOptions() {
  ingest::ScalerServiceOptions options;
  options.store_retention = 128;
  options.samples_per_interval = kSamplesPerInterval;
  options.max_drain_batch = 64;
  return options;
}

void AddTenants(const container::Catalog& catalog,
                ingest::ScalerService& service) {
  for (uint64_t t = 1; t <= kNumTenants; ++t) {
    scaler::TenantKnobs knobs;
    knobs.latency_goal =
        scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 35.0};
    auto policy = scaler::AutoScaler::Create(catalog, knobs);
    DBSCALE_CHECK_OK(policy.status());
    DBSCALE_CHECK(
        service.AddTenant(t, std::move(policy).value(), catalog.rung(2)).ok());
  }
}

struct NominalRun {
  uint64_t digest = 0;
  uint64_t rejected = 0;   ///< producer-side backpressure rejections
  uint64_t decisions = 0;
  uint64_t drains = 0;
  uint64_t routed = 0;
};

/// One nominal service run: two producers share the ring (tenants split
/// between them), the drainer runs every few pushes — the cadence a real
/// daemon's drain loop provides. Ring capacity far exceeds the largest
/// burst between drains, so backpressure never triggers.
NominalRun RunNominal(const container::Catalog& catalog) {
  ingest::IngestRing ring(ingest::IngestRingOptions{.capacity = 1 << 10});
  ingest::ScalerService service(&ring, ServiceOptions());
  AddTenants(catalog, service);
  ingest::IngestProducer shard_a(&ring, 0);
  ingest::IngestProducer shard_b(&ring, 1);

  const int total_samples = kIntervals * static_cast<int>(kSamplesPerInterval);
  for (int i = 0; i < total_samples; ++i) {
    for (uint64_t t = 1; t <= kNumTenants; ++t) {
      // A tenant's samples always come from one producer (one host agent
      // owns one container) — that is what makes producer interleaving
      // invisible to per-tenant routing.
      ingest::IngestProducer& shard = (t % 2 == 0) ? shard_a : shard_b;
      DBSCALE_CHECK(shard.Publish(t, MakeSample(catalog, t, i)) ==
                    ingest::PublishOutcome::kPublished);
    }
    if (i % 4 == 3) (void)service.DrainAll();
  }
  (void)service.DrainAll();

  NominalRun run;
  run.digest = service.Digest();
  run.rejected = shard_a.rejected() + shard_b.rejected() + ring.rejected();
  run.decisions = service.counters().decisions;
  run.drains = service.counters().drains;
  run.routed = service.counters().routed;
  return run;
}

/// The direct-feed serial reference: same samples, no ring, evaluation
/// synchronous with arrival — the sim-loop shape the equivalence contract
/// is stated against.
uint64_t RunDirectReference(const container::Catalog& catalog) {
  ingest::ScalerService service(nullptr, ServiceOptions());
  AddTenants(catalog, service);
  const int total_samples = kIntervals * static_cast<int>(kSamplesPerInterval);
  for (int i = 0; i < total_samples; ++i) {
    for (uint64_t t = 1; t <= kNumTenants; ++t) {
      service.OfferDirect(ingest::MakeWireSample(t, MakeSample(catalog, t, i)));
    }
  }
  return service.Digest();
}

struct OverloadRun {
  uint64_t attempted = 0;
  uint64_t published = 0;
  uint64_t rejected = 0;
  uint64_t ring_capacity = 0;
  uint64_t ring_rejected = 0;
};

/// Overload regime: flood a tiny ring without draining. The ring must
/// reject (counted, non-blocking) rather than drop silently — and every
/// attempted push is accounted for as published or rejected.
OverloadRun RunOverload(const container::Catalog& catalog) {
  ingest::IngestRing ring(ingest::IngestRingOptions{.capacity = 1 << 10});
  ingest::IngestProducer producer(&ring, 0);
  const telemetry::TelemetrySample sample = MakeSample(catalog, 1, 0);

  OverloadRun run;
  run.attempted = 40'000;
  for (uint64_t i = 0; i < run.attempted; ++i) {
    (void)producer.Publish(1, sample);
  }
  run.published = producer.published();
  run.rejected = producer.rejected();
  run.ring_capacity = ring.capacity();
  run.ring_rejected = ring.rejected();
  return run;
}

}  // namespace

int main() {
  const container::Catalog catalog = container::Catalog::MakeLockStep();

  // 1. Nominal run, twice: drain keeps up, nothing rejected, and the
  // decision digest is a pure function of the sample streams.
  const NominalRun run_a = RunNominal(catalog);
  const NominalRun run_b = RunNominal(catalog);
  const uint64_t direct = RunDirectReference(catalog);

  std::printf("nominal: %llu tenants x %d intervals, %llu samples routed "
              "over %llu drains, %llu decisions, %llu rejected\n",
              (unsigned long long)kNumTenants, kIntervals,
              (unsigned long long)run_a.routed,
              (unsigned long long)run_a.drains,
              (unsigned long long)run_a.decisions,
              (unsigned long long)run_a.rejected);
  std::printf("digest: run A %016llx, run B %016llx, direct feed %016llx\n",
              (unsigned long long)run_a.digest,
              (unsigned long long)run_b.digest, (unsigned long long)direct);

  // 2. Overload: a flooded 1024-slot ring rejects loudly.
  const OverloadRun overload = RunOverload(catalog);
  std::printf("overload: %llu pushes into a 1024-slot ring -> %llu "
              "published, %llu rejected (counted, non-blocking)\n",
              (unsigned long long)overload.attempted,
              (unsigned long long)overload.published,
              (unsigned long long)overload.rejected);

  examples::Contracts contracts;
  std::printf("\n");
  contracts.Check(run_a.digest == run_b.digest,
                  "the service run is run-twice bit-identical");
  contracts.Check(run_a.digest == direct,
                  "ring + batched evaluation matches the direct-feed serial "
                  "reference");
  contracts.Check(run_a.rejected == 0, "the nominal run rejects nothing");
  contracts.Check(run_a.decisions > 0 && run_a.routed > 0,
                  "the nominal run routes samples and decides");
  contracts.Check(overload.rejected > 0 &&
                      overload.published == overload.ring_capacity,
                  "a flooded ring fills, then rejects");
  contracts.Check(overload.published + overload.rejected ==
                          overload.attempted &&
                      overload.ring_rejected == overload.rejected,
                  "every attempted push is counted as published or "
                  "rejected, on the producer and on the ring");
  return contracts.ExitCode();
}
