#include "src/ingest/producer.h"

#include "src/common/check.h"

namespace dbscale::ingest {

IngestProducer::IngestProducer(IngestRing* ring, uint32_t producer_id,
                               fault::FaultPlan* plan)
    : ring_(ring), plan_(plan), producer_id_(producer_id) {
  DBSCALE_CHECK(ring != nullptr);
}

// dbscale-hot: one call per collected sample; allocation-free.
PublishOutcome IngestProducer::Publish(
    uint64_t tenant_id, const telemetry::TelemetrySample& sample) {
  if (plan_ == nullptr || !plan_->enabled()) {
    return Push(MakeWireSample(tenant_id, sample));
  }
  telemetry::TelemetrySample edged = sample;
  switch (edge_.Apply(plan_, &edged)) {
    case fault::SampleFault::kDrop:
      ++dropped_;
      return PublishOutcome::kDropped;
    case fault::SampleFault::kNan:
    case fault::SampleFault::kOutlier:
      // Published corrupted: the service's ingestion guard is the line of
      // defense, same as the sim loop's store-side check.
      ++corrupted_;
      break;
    case fault::SampleFault::kStale:
      ++stale_;
      break;
    case fault::SampleFault::kNone:
      break;
  }
  return Push(MakeWireSample(tenant_id, edged));
}

// dbscale-hot: stamps identity and pushes; allocation-free.
PublishOutcome IngestProducer::Push(const WireSample& wire) {
  WireSample stamped = wire;
  stamped.producer_id = producer_id_;
  stamped.producer_seq = next_seq_;
  if (!ring_->TryPush(stamped)) {
    ++rejected_;
    return PublishOutcome::kRejected;
  }
  ++next_seq_;
  ++published_;
  return PublishOutcome::kPublished;
}

}  // namespace dbscale::ingest
