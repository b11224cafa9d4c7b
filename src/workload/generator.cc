#include "src/workload/generator.h"

#include <algorithm>

#include "src/common/check.h"

namespace dbscale::workload {

RequestGenerator::RequestGenerator(engine::DatabaseEngine* engine,
                                   const WorkloadSpec& spec, Trace trace,
                                   GeneratorOptions options, Rng rng)
    : engine_(engine),
      spec_(spec),
      trace_(std::move(trace)),
      options_(options),
      rng_(rng) {
  DBSCALE_CHECK(engine != nullptr);
  DBSCALE_CHECK(!trace_.empty());
  DBSCALE_CHECK(options_.step_duration > Duration::Zero());
  DBSCALE_CHECK(options_.rate_scale > 0.0);
  DBSCALE_CHECK_OK(spec_.Validate());
  handler_id_ = engine->events()->AddHandler(this);
}

void RequestGenerator::Start() {
  DBSCALE_CHECK(!started_);
  started_ = true;
  start_time_ = engine_->events()->Now();
  if (options_.mode == ArrivalMode::kClosedLoop) {
    AdjustSessions();
  } else {
    ScheduleNextArrival();
  }
}

// dbscale-hot
void RequestGenerator::OnEvent(const engine::Event& event) {
  switch (event.kind) {
    case kArrival: return Arrive();
    case kNextArrival: return ScheduleNextArrival();
    case kAdjustSessions: return AdjustSessions();
    default: return SessionIssue();
  }
}

void RequestGenerator::At(SimTime when, EventKind kind) {
  engine_->events()->Schedule(when, handler_id_, kind);
}

void RequestGenerator::AdjustSessions() {
  if (engine_->events()->Now() >= end_time()) return;
  const int64_t target = static_cast<int64_t>(CurrentRate());
  // Spawn sessions up to the target; surplus sessions retire on their next
  // completion (SessionIssue checks the target again).
  while (active_sessions_ < target) {
    ++active_sessions_;
    SessionIssue();
  }
  // Re-check at the next step boundary.
  const SimTime next_boundary =
      start_time_ +
      options_.step_duration * static_cast<double>(CurrentStep() + 1);
  At(std::min(next_boundary, end_time()), kAdjustSessions);
}

// dbscale-hot
void RequestGenerator::SessionIssue() {
  if (engine_->events()->Now() >= end_time() ||
      active_sessions_ > static_cast<int64_t>(CurrentRate())) {
    --active_sessions_;  // session retires
    return;
  }
  ++requests_issued_;
  // The hook captures only `this`, so it is stored without allocating.
  engine_->Submit(spec_.Sample(&rng_), [this](const engine::RequestResult&) {
    const Duration think = Duration::Millis(1) *
                           rng_.Exponential(std::max(
                               options_.think_time.ToMillis(), 1e-3));
    At(engine_->events()->Now() + think, kSessionIssue);
  });
}

SimTime RequestGenerator::end_time() const {
  return start_time_ +
         options_.step_duration * static_cast<double>(trace_.num_steps());
}

size_t RequestGenerator::CurrentStep() const {
  const Duration elapsed = engine_->events()->Now() - start_time_;
  return static_cast<size_t>(elapsed.ToSeconds() /
                             options_.step_duration.ToSeconds());
}

double RequestGenerator::CurrentRate() const {
  return trace_.rate_at(CurrentStep()) * options_.rate_scale;
}

// dbscale-hot
void RequestGenerator::ScheduleNextArrival() {
  const SimTime now = engine_->events()->Now();
  if (now >= end_time()) return;

  const double rate = CurrentRate();
  if (rate <= 0.0) {
    // Idle step: re-check at the next step boundary.
    const size_t next_step = CurrentStep() + 1;
    const SimTime next_boundary =
        start_time_ +
        options_.step_duration * static_cast<double>(next_step);
    At(std::min(next_boundary, end_time()), kNextArrival);
    return;
  }

  const Duration gap = Duration::Seconds(rng_.Exponential(1.0 / rate));
  At(now + gap, kArrival);
}

// dbscale-hot
void RequestGenerator::Arrive() {
  if (engine_->events()->Now() >= end_time()) return;
  const bool at_capacity =
      options_.max_in_flight > 0 &&
      engine_->requests_in_flight() >= options_.max_in_flight;
  if (at_capacity) {
    ++requests_dropped_;
  } else {
    ++requests_issued_;
    engine_->Submit(spec_.Sample(&rng_));
  }
  ScheduleNextArrival();
}

}  // namespace dbscale::workload
