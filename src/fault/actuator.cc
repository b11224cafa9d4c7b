#include "src/fault/actuator.h"

#include "src/common/check.h"

namespace dbscale::fault {

ResizeActuator::ResizeActuator(FaultPlan* plan) : plan_(plan) {
  DBSCALE_CHECK(plan != nullptr);
}

ResizeEvent ResizeActuator::Begin(const container::ContainerSpec& target,
                                  int extra_latency_intervals) {
  DBSCALE_CHECK(!pending_);
  DBSCALE_CHECK(extra_latency_intervals >= 0);
  ++begins_;
  attempt_ = target.id == last_target_id_ ? attempt_ + 1 : 1;
  last_target_id_ = target.id;
  target_ = target;

  const ResizeFaultDraw draw = plan_->NextResizeFault();
  if (draw.fate == ResizeFate::kRejected) {
    ++rejected_;
    return ResizeEvent{ResizeEventKind::kRejected, target_, attempt_};
  }
  fate_ = draw.fate;
  remaining_intervals_ = draw.latency_intervals + extra_latency_intervals;
  if (remaining_intervals_ == 0) return Resolve();
  pending_ = true;
  return ResizeEvent{ResizeEventKind::kPending, target_, attempt_};
}

ResizeEvent ResizeActuator::Tick() {
  if (!pending_) return ResizeEvent{};
  --remaining_intervals_;
  if (remaining_intervals_ > 0) {
    return ResizeEvent{ResizeEventKind::kPending, target_, attempt_};
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
}

ResizeEvent ResizeActuator::Resolve() {
  if (fate_ == ResizeFate::kApplied) {
    ++applied_;
    return ResizeEvent{ResizeEventKind::kApplied, target_, attempt_};
  }
  ++failed_;
  return ResizeEvent{ResizeEventKind::kFailed, target_, attempt_};
}

}  // namespace dbscale::fault
