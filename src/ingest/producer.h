// IngestProducer: the collector-side publisher of WireSamples.
//
// One producer models one collector shard / host agent: it packs internal
// TelemetrySamples onto the wire, stamps its producer id and a per-producer
// monotone sequence number, and pushes into the shared IngestRing. The
// telemetry fault model (src/fault/) is applied HERE, at the producer
// edge, through the same fault::TelemetryFaultEdge the sim loop applies at
// its ingestion site, so the two agree by construction:
//
//   * kDrop    — the sample never reaches the ring (counted);
//   * kNan     — pushed corrupted; the service's ingestion guard rejects
//                it (the gap is exercised through the validity check, not
//                around it);
//   * kOutlier — pushed with inflated latency/wait figures (the robust
//                aggregates absorb it);
//   * kStale   — the previous clean payload is replayed under the current
//                sample's period bounds.
//
// A producer is single-threaded state (sequence counter, fault edge); give
// each producer thread its own instance. Many instances may share one
// ring.

#ifndef DBSCALE_INGEST_PRODUCER_H_
#define DBSCALE_INGEST_PRODUCER_H_

#include <cstdint>

#include "src/fault/fault_plan.h"
#include "src/ingest/ingest_ring.h"
#include "src/ingest/wire_sample.h"

namespace dbscale::ingest {

/// How one Publish call resolved.
enum class PublishOutcome : uint8_t {
  kPublished,  ///< pushed into the ring (possibly corrupted or stale)
  kDropped,    ///< consumed by a kDrop telemetry fault; nothing pushed
  kRejected    ///< the ring was full; the sample was not delivered
};

/// \brief Single-threaded wire publisher with optional producer-edge
/// telemetry-fault injection.
class IngestProducer {
 public:
  /// \param ring   shared MPSC ring (not owned; must outlive the producer)
  /// \param producer_id  stamped on every published sample
  /// \param plan   optional telemetry fault source (not owned); nullptr or
  ///               a null plan injects nothing.
  IngestProducer(IngestRing* ring, uint32_t producer_id,
                 fault::FaultPlan* plan = nullptr);

  /// Packs and publishes one sample for `tenant_id`. Sequence numbers are
  /// consumed only by successful pushes, so the drain side sees a strictly
  /// consecutive 0,1,2,... stream per producer.
  PublishOutcome Publish(uint64_t tenant_id,
                         const telemetry::TelemetrySample& sample);

  uint32_t producer_id() const { return producer_id_; }
  /// Samples successfully pushed into the ring.
  uint64_t published() const { return published_; }
  /// Samples consumed by kDrop faults.
  uint64_t dropped() const { return dropped_; }
  /// Samples the ring rejected (backpressure).
  uint64_t rejected() const { return rejected_; }
  /// Samples pushed with kNan/kOutlier corruption applied.
  uint64_t corrupted() const { return corrupted_; }
  /// Samples replayed stale.
  uint64_t stale() const { return stale_; }

 private:
  PublishOutcome Push(const WireSample& wire);

  IngestRing* ring_;
  fault::FaultPlan* plan_;
  uint32_t producer_id_;
  uint64_t next_seq_ = 0;

  fault::TelemetryFaultEdge edge_;

  uint64_t published_ = 0;
  uint64_t dropped_ = 0;
  uint64_t rejected_ = 0;
  uint64_t corrupted_ = 0;
  uint64_t stale_ = 0;
};

}  // namespace dbscale::ingest

#endif  // DBSCALE_INGEST_PRODUCER_H_
