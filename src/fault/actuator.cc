#include "src/fault/actuator.h"

#include "src/common/check.h"

namespace dbscale::fault {

ResizeActuator::ResizeActuator(FaultPlan* plan, int migration_latency_intervals,
                               int migration_downtime_intervals)
    : plan_(plan),
      migration_latency_intervals_(migration_latency_intervals),
      migration_downtime_intervals_(migration_downtime_intervals) {
  DBSCALE_CHECK(plan != nullptr);
  DBSCALE_CHECK(migration_latency_intervals >= 0);
  DBSCALE_CHECK(migration_downtime_intervals >= 0);
}

// dbscale-hot
ActuationOutcome ResizeActuator::Begin(const container::ContainerSpec& target,
                                       ActuationKind kind) {
  DBSCALE_CHECK(!pending_);
  attempt_ = target.id == last_target_id_ ? attempt_ + 1 : 1;
  last_target_id_ = target.id;
  target_ = target;
  kind_ = kind;
  downtime_billed_ = 0;

  const ResizeFaultDraw draw = plan_->NextResizeFault();
  if (draw.fate == ResizeFate::kRejected) {
    return Outcome(ActuationPhase::kRejected);
  }
  fate_ = draw.fate;
  remaining_intervals_ = draw.latency_intervals;
  if (kind == ActuationKind::kMigration) {
    remaining_intervals_ +=
        migration_latency_intervals_ + migration_downtime_intervals_;
  }
  if (remaining_intervals_ == 0) return Resolve();
  pending_ = true;
  return Outcome(ActuationPhase::kPending);
}

// dbscale-hot
ActuationOutcome ResizeActuator::Tick() {
  if (!pending_) return ActuationOutcome{};
  --remaining_intervals_;
  if (remaining_intervals_ > 0) {
    // Still in flight: an interval inside the migration blackout window is
    // one more downtime interval billed against the tenant.
    if (in_downtime()) ++downtime_billed_;
    return Outcome(ActuationPhase::kPending);
  }
  pending_ = false;
  return Resolve();
}

ResizeActuator::State ResizeActuator::SaveState() const {
  State s;
  s.pending = pending_;
  s.target_rung = last_target_id_ >= 0 ? target_.base_rung : -1;
  s.fate = fate_;
  s.remaining_intervals = remaining_intervals_;
  s.attempt = attempt_;
  s.last_target_id = last_target_id_;
  s.kind = pending_ ? kind_ : ActuationKind::kLocalResize;
  return s;
}

void ResizeActuator::RestoreState(const State& state,
                                  const container::Catalog& catalog) {
  pending_ = state.pending;
  target_ = state.target_rung >= 0 ? catalog.rung(state.target_rung)
                                   : container::ContainerSpec{};
  fate_ = state.fate;
  remaining_intervals_ = state.remaining_intervals;
  attempt_ = state.attempt;
  last_target_id_ = state.last_target_id;
  kind_ = state.kind;
  downtime_billed_ = 0;
}

ActuationOutcome ResizeActuator::Resolve() {
  return Outcome(fate_ == ResizeFate::kApplied ? ActuationPhase::kApplied
                                               : ActuationPhase::kFailed);
}

}  // namespace dbscale::fault
