#include "src/host/actuation.h"

#include "src/common/check.h"

namespace dbscale::host {

ActuationChannel::ActuationChannel(fault::ResizeActuator* actuator,
                                   int migration_latency_intervals,
                                   int migration_downtime_intervals)
    : actuator_(actuator),
      migration_latency_intervals_(migration_latency_intervals),
      migration_downtime_intervals_(migration_downtime_intervals) {
  DBSCALE_CHECK(actuator != nullptr);
}

namespace {

ActuationPhase PhaseOf(fault::ResizeEventKind kind) {
  switch (kind) {
    case fault::ResizeEventKind::kNone:
      return ActuationPhase::kNone;
    case fault::ResizeEventKind::kPending:
      return ActuationPhase::kPending;
    case fault::ResizeEventKind::kApplied:
      return ActuationPhase::kApplied;
    case fault::ResizeEventKind::kFailed:
      return ActuationPhase::kFailed;
    case fault::ResizeEventKind::kRejected:
      return ActuationPhase::kRejected;
  }
  return ActuationPhase::kNone;
}

}  // namespace

// dbscale-hot
ActuationOutcome ActuationChannel::MakeOutcome(
    const fault::ResizeEvent& event) const {
  ActuationOutcome out;
  out.phase = PhaseOf(event.kind);
  out.kind = request_.kind;
  out.target = event.target;
  out.attempt = event.attempt;
  if (request_.kind == ActuationKind::kMigration) {
    out.from_host = source_host_;
    out.to_host = request_.host_hint;
    out.downtime_intervals = downtime_billed_;
  }
  return out;
}

// dbscale-hot
ActuationOutcome ActuationChannel::Begin(const ActuationRequest& request,
                                         int source_host) {
  DBSCALE_CHECK(!actuator_->pending());
  request_ = request;
  source_host_ = source_host;
  downtime_billed_ = 0;
  const int extra =
      request.kind == ActuationKind::kMigration
          ? migration_latency_intervals_ + migration_downtime_intervals_
          : 0;
  return MakeOutcome(actuator_->Begin(request.target, extra));
}

// dbscale-hot
ActuationOutcome ActuationChannel::Tick() {
  const fault::ResizeEvent event = actuator_->Tick();
  if (event.kind != fault::ResizeEventKind::kNone && in_downtime()) {
    // This interval falls inside the migration blackout window: one more
    // downtime interval billed against the tenant.
    ++downtime_billed_;
  }
  return MakeOutcome(event);
}

bool ActuationChannel::in_downtime() const {
  if (!actuator_->pending() ||
      request_.kind != ActuationKind::kMigration ||
      migration_downtime_intervals_ <= 0) {
    return false;
  }
  return actuator_->remaining_intervals() <= migration_downtime_intervals_;
}

}  // namespace dbscale::host
