// ScalerService: the scaling stack as a long-lived daemon.
//
// The simulator calls TelemetryManager::Compute and Policy::Decide
// synchronously at each billing-interval boundary. The service decouples
// the two halves of that loop: producers push WireSamples into the
// IngestRing as they arrive; the drainer (this class) pops them in
// batches, routes each to its tenant's sliding-window store, and evaluates
// billing-interval decisions in tenant batches over the deterministic
// ThreadPool.
//
// Equivalence contract — service-mode decisions are bit-identical to
// sim-loop decisions for the same per-tenant sample sequence:
//
//   1. A tenant's decision at interval k is a pure function of the signal
//      windows over its first k * samples_per_interval routed samples, its
//      policy state (itself a fold over its first k decisions), and its
//      resize feedback (a fold over the same decisions). Nothing is shared
//      across tenants.
//   2. Routing evaluates a tenant the moment its samples_per_interval-th
//      sample of the interval lands, BEFORE routing any later sample of
//      that tenant — drained batches that straddle an interval boundary
//      are processed in rounds, parking a due tenant's excess samples in
//      a carry buffer until its decision is taken. Every sample is
//      validated, order-checked and counted, but only the samples the
//      decision can read reach the store: the k-th routed sample of an
//      interval (0-based) is stored iff k + widest window >=
//      samples_per_interval. A decision reads only the newest widest-window
//      samples, so the windows it reads are exactly the sim loop's.
//   3. Batched evaluation (scaler::DecideBatch) writes per-slot results
//      and the service folds them in tenant order, so batch slicing and
//      thread count cannot reorder any tenant-visible effect.
//
// Hence the per-tenant decision digest — and the tenant-order chained
// service digest — is invariant to producer interleaving, drain batch
// size, rounds slicing, and DBSCALE_NUM_THREADS; tests assert this
// against a direct-feed serial reference, against an unelided store, and
// against sim::Simulation.
//
// Threading: ALL service methods are drainer-thread-only. Producers touch
// only IngestRing::TryPush. Observability recording happens on the
// drainer thread into the primary shard; the parallel evaluation region
// hands policies a null sink (per-worker shards are the fleet runner's
// business; the service's instruments live at the drain/decide stages).

#ifndef DBSCALE_INGEST_SCALER_SERVICE_H_
#define DBSCALE_INGEST_SCALER_SERVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/fnv.h"
#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/container/container.h"
#include "src/ingest/ingest_ring.h"
#include "src/ingest/metrics.h"
#include "src/ingest/wire_sample.h"
#include "src/obs/pipeline.h"
#include "src/scaler/batch_eval.h"
#include "src/scaler/policy.h"
#include "src/telemetry/manager.h"
#include "src/telemetry/store.h"

namespace dbscale::ingest {

struct ScalerServiceOptions {
  /// Signal-window configuration shared by every tenant.
  telemetry::TelemetryManagerOptions telemetry;
  /// Per-tenant store retention (samples); at least the largest telemetry
  /// window. At 152 B per stored sample the default holds ~9.7 KB per
  /// tenant.
  size_t store_retention = 64;
  /// Samples that make up one billing interval; the tenant's decision is
  /// evaluated when the interval's last sample lands (now = its
  /// period_end, matching the sim loop's boundary clock).
  size_t samples_per_interval = 60;
  /// Max samples popped per DrainOnce.
  size_t max_drain_batch = 1024;
  /// Producer ids must be < this (fixed-size sequence table so the drain
  /// path stays allocation-free).
  size_t max_producers = 64;
  /// Optional monotone-ns reader (e.g. steady clock, supplied by benches
  /// — src/ingest/ itself is wall-clock-free) used to time per-decision
  /// latency. Null disables timing. Results never depend on it.
  uint64_t (*timer)() = nullptr;
  /// When `timer` is set, Compute+Decide ns per decision are appended
  /// here (caller owns capacity management).
  std::vector<uint64_t>* decision_latency_sink = nullptr;

  Status Validate() const;
};

/// Drain-side counters (drainer-thread-only reads/writes).
struct IngestCounters {
  uint64_t drains = 0;           ///< DrainOnce calls
  uint64_t drained = 0;          ///< samples popped off the ring
  uint64_t routed = 0;           ///< samples counted into a tenant's interval
  uint64_t invalid = 0;          ///< ingestion-guard rejections
  uint64_t unknown_tenant = 0;
  uint64_t unknown_producer = 0;
  uint64_t seq_violations = 0;   ///< producer-seq monotonicity breaks
  uint64_t out_of_order = 0;     ///< per-tenant period-clock regressions
  uint64_t decisions = 0;
  uint64_t eval_rounds = 0;      ///< batched evaluations (decide.batch spans)
};

/// \brief The drainer: routes ring samples to per-tenant state and runs
/// batched decision evaluation. Single-threaded driver; parallelism lives
/// inside the evaluation stage.
class ScalerService {
 public:
  /// \param ring ingest ring to drain (may be null when only the
  ///        direct-feed path is used; not owned).
  /// \param pool evaluation pool (null = serial; not owned).
  /// \param ob   optional observability bundle; when set the service
  ///        registers its instruments and records drain/decide metrics
  ///        and `ingest.drain`/`decide.batch` spans (not owned).
  ScalerService(IngestRing* ring, ScalerServiceOptions options,
                ThreadPool* pool = nullptr, obs::Observability* ob = nullptr);

  ScalerService(const ScalerService&) = delete;
  ScalerService& operator=(const ScalerService&) = delete;

  /// Registers a tenant before feeding begins. The policy is the tenant's
  /// decision maker (AutoScaler in production, anything for tests);
  /// `initial` is the container in effect before the first decision.
  Status AddTenant(uint64_t tenant_id,
                   std::unique_ptr<scaler::ScalingPolicy> policy,
                   const container::ContainerSpec& initial);

  /// Pops one batch off the ring, routes it, evaluates every tenant that
  /// completed a billing interval. Returns samples drained (0 = ring was
  /// empty). Never blocks.
  size_t DrainOnce();

  /// DrainOnce until the ring is empty; returns total samples drained.
  size_t DrainAll();

  /// Direct-feed reference path: routes one sample bypassing the ring and
  /// evaluates immediately when the tenant's interval completes. This is
  /// the sim-loop shape (sample arrival synchronous with evaluation);
  /// tests compare its digest against the ring+batch path.
  void OfferDirect(const WireSample& sample);

  /// Tenant-order chained digest over every tenant's decision stream
  /// (target id, explanation code, memory override per interval).
  /// Bit-identical across producer/thread counts and batch sizes for the
  /// same per-tenant sample sequences.
  uint64_t Digest() const;

  /// Per-tenant decision-stream digest (0 for unknown tenants).
  uint64_t TenantDigest(uint64_t tenant_id) const;

  const IngestCounters& counters() const { return counters_; }
  /// Container currently in effect for a tenant (null if unknown).
  const container::ContainerSpec* CurrentContainer(uint64_t tenant_id) const;
  /// Completed billing intervals for a tenant (-1 if unknown).
  int IntervalIndex(uint64_t tenant_id) const;
  size_t num_tenants() const { return tenants_.size(); }
  const ScalerServiceOptions& options() const { return options_; }

 private:
  struct TenantState {
    // Routing state first: a sample the store elides touches only these.
    uint64_t id = 0;
    /// Round stamp: samples of a tenant that already parked one sample
    /// this round must park too (per-tenant FIFO through the rounds).
    uint64_t parked_round = 0;
    size_t samples_in_interval = 0;
    /// period_end of the last routed sample; the order check reads it,
    /// since the store can be empty after samples were routed.
    int64_t last_period_end_us = 0;
    bool routed_any = false;
    bool due = false;
    int interval_index = 0;
    telemetry::TelemetryStore store;
    std::unique_ptr<scaler::ScalingPolicy> policy;
    container::ContainerSpec current;
    scaler::ActuationFeedback feedback;
    Fnv64Stream digest;

    explicit TenantState(size_t retention) : store(retention) {}
  };

  /// One evaluation slice's signal scratch, on cache lines of its own:
  /// Compute writes the vector headers on every call, and two slices that
  /// shared a line would stall each other whenever they ran at once.
  struct alignas(64) SliceScratch {
    telemetry::SignalScratch signals;
  };

  /// (Re)sizes scratch buffers when the tenant set or options changed;
  /// no-op (and allocation-free) in steady state.
  void EnsureBuffers();
  /// First pass over a drained batch: producer-seq monotonicity.
  void CheckProducerSeqs(const WireSample* samples, size_t n);
  /// Routes batch samples in rounds with a carry buffer (see header
  /// comment, point 2), evaluating due tenants between rounds.
  void ProcessBatch(const WireSample* samples, size_t n,
                    const obs::Sink& sink);
  /// Routes one sample or parks it into `park` when its tenant has a
  /// pending decision. Appends newly due tenants to due_.
  void RouteOrPark(const WireSample& wire, std::vector<WireSample>& park);
  /// Batched Compute+Decide over due_ in tenant order; folds digests,
  /// applies targets, resets interval counters. Compute runs over
  /// contiguous slices of due_, slice k on scratch_[k].
  void EvaluateDue(const obs::Sink& sink);

  /// Null when the id was never added.
  TenantState* FindTenant(uint64_t tenant_id) const;

  IngestRing* ring_;
  ScalerServiceOptions options_;
  ThreadPool* pool_;
  obs::Observability* ob_;
  obs::Sink sink_;  ///< drainer-thread recording; null when ob_ is null
  IngestMetrics metrics_{};
  telemetry::TelemetryManager manager_;

  /// Tenants in AddTenant order; a deque, so the addresses CurrentContainer
  /// hands out survive later AddTenant calls.
  std::deque<TenantState> tenants_;
  /// Lookup index, sorted by id: tenant_ids_[i] is tenant_index_[i]'s id.
  /// A contiguous binary search instead of a tree walk per sample; Digest
  /// reads it in id order.
  std::vector<uint64_t> tenant_ids_;
  std::vector<TenantState*> tenant_index_;
  /// The store keeps an interval's k-th routed sample (0-based) iff
  /// k >= first_stored_: samples_per_interval less the widest window, or 0
  /// when the interval is no longer than that window.
  size_t first_stored_ = 0;
  IngestCounters counters_;
  uint64_t round_ = 0;
  int64_t max_period_end_us_ = 0;  ///< span clock (latest sample seen)

  // Drain scratch (sized by EnsureBuffers; no steady-state growth).
  std::vector<WireSample> batch_;
  std::vector<WireSample> carry_a_;
  std::vector<WireSample> carry_b_;
  std::vector<TenantState*> due_;
  std::vector<scaler::DecisionSlot> slots_;
  std::vector<uint64_t> compute_ns_;
  /// One signal scratch per evaluation slice (pool width, 1 when serial).
  /// Compute clears every buffer before use, so results cannot depend on
  /// which slice a tenant lands in.
  std::vector<SliceScratch> scratch_;
  std::vector<uint64_t> producer_next_seq_;
  size_t sized_tenants_ = 0;
};

}  // namespace dbscale::ingest

#endif  // DBSCALE_INGEST_SCALER_SERVICE_H_
