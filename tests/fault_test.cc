// Fault-injection layer tests: FaultPlan determinism, the resize actuation
// channel, the retry/backoff/rejection/degradation handling and the
// decision-cycle holds both policies share, and closed loop + fleet
// behavior under fault profiles.

#include "src/fault/fault_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/common/check.h"
#include "src/engine/engine.h"
#include "src/fault/actuator.h"
#include "src/fleet/fleet_sim.h"
#include "src/scaler/autoscaler.h"
#include "src/scaler/diagonal.h"
#include "src/sim/experiment.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"
#include "tests/fleet_telemetry_digest.h"

namespace dbscale::fault {
namespace {

using container::Catalog;
using container::ResourceKind;

FaultPlanOptions AcceptanceProfile() {
  // The headline resilience profile: 10% transient failures, 1-2 interval
  // actuation latency.
  FaultPlanOptions options;
  options.resize.failure_probability = 0.1;
  options.resize.min_latency_intervals = 1;
  options.resize.max_latency_intervals = 2;
  return options;
}

TEST(FaultPlanTest, NullPlanIsDisabledAndInjectsNothing) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (int i = 0; i < 10; ++i) {
    const ResizeFaultDraw draw = plan.NextResizeFault();
    EXPECT_EQ(draw.fate, ResizeFate::kApplied);
    EXPECT_EQ(draw.latency_intervals, 0);
    EXPECT_EQ(plan.NextSampleFault(), SampleFault::kNone);
  }
  EXPECT_FALSE(FaultPlanOptions{}.enabled());
  EXPECT_TRUE(FaultPlanOptions{}.Validate().ok());
}

TEST(FaultPlanTest, ValidateRejectsBadOptions) {
  FaultPlanOptions bad;
  bad.resize.failure_probability = 1.5;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultPlanOptions{};
  bad.resize.failure_probability = 0.6;
  bad.resize.rejection_probability = 0.6;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultPlanOptions{};
  bad.resize.min_latency_intervals = 3;
  bad.resize.max_latency_intervals = 1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultPlanOptions{};
  bad.telemetry.drop_probability = 0.5;
  bad.telemetry.nan_probability = 0.4;
  bad.telemetry.stale_probability = 0.3;
  EXPECT_FALSE(bad.Validate().ok());

  EXPECT_TRUE(AcceptanceProfile().Validate().ok());
}

TEST(FaultPlanTest, SameSeedSameFaultSequence) {
  FaultPlanOptions options = AcceptanceProfile();
  options.resize.rejection_probability = 0.05;
  options.telemetry.drop_probability = 0.1;
  options.telemetry.nan_probability = 0.05;
  options.telemetry.outlier_probability = 0.05;
  options.telemetry.stale_probability = 0.05;
  ASSERT_TRUE(options.Validate().ok());

  FaultPlan a(options, Rng(42));
  FaultPlan b(options, Rng(42));
  FaultPlan c(options, Rng(43));
  bool any_divergence_from_c = false;
  for (int i = 0; i < 500; ++i) {
    const ResizeFaultDraw da = a.NextResizeFault();
    const ResizeFaultDraw db = b.NextResizeFault();
    EXPECT_EQ(da.fate, db.fate);
    EXPECT_EQ(da.latency_intervals, db.latency_intervals);
    const SampleFault sa = a.NextSampleFault();
    EXPECT_EQ(sa, b.NextSampleFault());
    const ResizeFaultDraw dc = c.NextResizeFault();
    if (dc.fate != da.fate || dc.latency_intervals != da.latency_intervals ||
        c.NextSampleFault() != sa) {
      any_divergence_from_c = true;
    }
  }
  EXPECT_TRUE(any_divergence_from_c);
}

TEST(FaultPlanTest, NanCorruptionIsCaughtByIngestionGuard) {
  FaultPlanOptions options;
  options.telemetry.nan_probability = 1.0;
  FaultPlan plan(options, Rng(1));

  telemetry::TelemetrySample sample;
  sample.period_end = SimTime::Zero() + Duration::Seconds(5);
  sample.latency_avg_ms = 10.0;
  sample.latency_p95_ms = 20.0;
  EXPECT_TRUE(SampleLooksValid(sample));
  plan.CorruptSample(SampleFault::kNan, &sample);
  EXPECT_FALSE(SampleLooksValid(sample));
}

TEST(FaultPlanTest, OutlierCorruptionInflatesButStaysValid) {
  FaultPlanOptions options;
  options.telemetry.outlier_probability = 1.0;
  options.telemetry.outlier_factor = 8.0;
  FaultPlan plan(options, Rng(1));

  telemetry::TelemetrySample sample;
  sample.latency_p95_ms = 20.0;
  plan.CorruptSample(SampleFault::kOutlier, &sample);
  EXPECT_DOUBLE_EQ(sample.latency_p95_ms, 160.0);
  EXPECT_TRUE(SampleLooksValid(sample));
}

TEST(ResizeActuatorTest, NullPlanAppliesImmediately) {
  const Catalog catalog = Catalog::MakeLockStep();
  FaultPlan plan;
  ResizeActuator actuator(&plan);
  const ActuationOutcome ev = actuator.Begin(catalog.rung(5));
  EXPECT_EQ(ev.phase, ActuationPhase::kApplied);
  EXPECT_EQ(ev.target.base_rung, 5);
  EXPECT_EQ(ev.attempt, 1);
  EXPECT_FALSE(actuator.pending());
}

TEST(ResizeActuatorTest, LatencyDelaysApplication) {
  const Catalog catalog = Catalog::MakeLockStep();
  FaultPlanOptions options;
  options.resize.min_latency_intervals = 2;
  options.resize.max_latency_intervals = 2;
  FaultPlan plan(options, Rng(7));
  ResizeActuator actuator(&plan);

  EXPECT_EQ(actuator.Begin(catalog.rung(5)).phase, ActuationPhase::kPending);
  EXPECT_TRUE(actuator.pending());
  EXPECT_EQ(actuator.Tick().phase, ActuationPhase::kPending);
  const ActuationOutcome done = actuator.Tick();
  EXPECT_EQ(done.phase, ActuationPhase::kApplied);
  EXPECT_EQ(done.target.base_rung, 5);
  EXPECT_FALSE(actuator.pending());
  EXPECT_EQ(actuator.Tick().phase, ActuationPhase::kNone);
  // One request, applied once.
  EXPECT_EQ(done.attempt, 1);
}

TEST(ResizeActuatorTest, AttemptsCountPerTargetAndResetOnNewTarget) {
  const Catalog catalog = Catalog::MakeLockStep();
  FaultPlanOptions options;
  options.resize.failure_probability = 1.0;
  FaultPlan plan(options, Rng(3));
  ResizeActuator actuator(&plan);

  for (int attempt = 1; attempt <= 3; ++attempt) {
    const ActuationOutcome ev = actuator.Begin(catalog.rung(5));
    EXPECT_EQ(ev.attempt, attempt);
    EXPECT_EQ(ev.phase, ActuationPhase::kFailed);
  }
  // New target id: the attempt counter starts over.
  const ActuationOutcome fresh = actuator.Begin(catalog.rung(6));
  EXPECT_EQ(fresh.attempt, 1);
  EXPECT_EQ(fresh.phase, ActuationPhase::kFailed);
}

TEST(ResizeActuatorTest, RejectionIsImmediate) {
  const Catalog catalog = Catalog::MakeLockStep();
  FaultPlanOptions options;
  options.resize.rejection_probability = 1.0;
  options.resize.min_latency_intervals = 2;
  options.resize.max_latency_intervals = 2;
  FaultPlan plan(options, Rng(3));
  ResizeActuator actuator(&plan);

  const ActuationOutcome ev = actuator.Begin(catalog.rung(5));
  EXPECT_EQ(ev.phase, ActuationPhase::kRejected);
  EXPECT_FALSE(actuator.pending());
  // Nothing is left in flight to resolve later.
  EXPECT_EQ(actuator.Tick().phase, ActuationPhase::kNone);
}

TEST(EngineResizeApiTest, BeginCompleteAbortSemantics) {
  const Catalog catalog = Catalog::MakeLockStep();
  engine::EventQueue events;
  engine::EngineOptions options;
  engine::DatabaseEngine engine(&events, options, catalog.rung(3), Rng(1));

  // Nothing staged: Complete/Abort are precondition failures.
  EXPECT_FALSE(engine.CompleteResize().ok());
  EXPECT_FALSE(engine.AbortResize().ok());

  ASSERT_TRUE(engine.BeginResize(catalog.rung(5)).ok());
  EXPECT_TRUE(engine.resize_pending());
  // One actuation channel: a second Begin while staged is an error.
  EXPECT_FALSE(engine.BeginResize(catalog.rung(6)).ok());
  // The container does not change until CompleteResize.
  EXPECT_EQ(engine.current_container().base_rung, 3);
  ASSERT_TRUE(engine.CompleteResize().ok());
  EXPECT_EQ(engine.current_container().base_rung, 5);
  EXPECT_FALSE(engine.resize_pending());

  // Abort leaves the engine untouched.
  ASSERT_TRUE(engine.BeginResize(catalog.rung(8)).ok());
  ASSERT_TRUE(engine.AbortResize().ok());
  EXPECT_EQ(engine.current_container().base_rung, 5);
  EXPECT_FALSE(engine.resize_pending());
}

// ---------------------------------------------------------------------------
// Resize-lifecycle handling, identical for both policies (unit level,
// synthetic snapshots).

template <typename Policy>
class PolicyFaultTest : public ::testing::Test {
 protected:
  PolicyFaultTest() : catalog_(Catalog::MakeLockStep()) {}

  std::unique_ptr<Policy> MakeScaler(double goal_ms) {
    scaler::TenantKnobs knobs;
    knobs.latency_goal =
        scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, goal_ms};
    auto result = Policy::Create(catalog_, knobs);
    DBSCALE_CHECK_OK(result.status());
    return std::move(result).value();
  }

  telemetry::SignalSnapshot Snapshot(int rung, double latency_ms) {
    telemetry::SignalSnapshot s;
    s.valid = true;
    s.latency_ms = latency_ms;
    s.allocation = catalog_.rung(rung).resources;
    s.throughput_rps = 50.0;
    for (ResourceKind kind : container::kAllResources) {
      auto& r = s.resources[static_cast<size_t>(kind)];
      r.utilization_pct = 50.0;
      r.wait_ms_per_request = 5.0;
      r.wait_pct = 25.0;
    }
    return s;
  }

  void SetCpuBottleneck(telemetry::SignalSnapshot* s) {
    auto& cpu = s->resources[static_cast<size_t>(ResourceKind::kCpu)];
    cpu.utilization_pct = 85.0;
    cpu.wait_ms_per_request = 50.0;
    cpu.wait_pct = 70.0;
    s->wait_pct_by_class[static_cast<size_t>(telemetry::WaitClass::kCpu)] =
        70.0;
  }

  void SetAllIdle(telemetry::SignalSnapshot* s) {
    for (ResourceKind kind : container::kAllResources) {
      auto& r = s->resources[static_cast<size_t>(kind)];
      r.utilization_pct = kind == ResourceKind::kMemory ? 80.0 : 5.0;
      r.wait_ms_per_request = 0.1;
      r.wait_pct = 10.0;
    }
  }

  void SetLockBound(telemetry::SignalSnapshot* s) {
    SetAllIdle(s);
    s->wait_pct_by_class[static_cast<size_t>(telemetry::WaitClass::kLock)] =
        93.0;
    s->total_wait_ms = 5000.0;
  }

  scaler::PolicyInput Input(const telemetry::SignalSnapshot& signals,
                            int rung, int interval) {
    scaler::PolicyInput input;
    input.now = SimTime::Zero() + Duration::Seconds(20.0 * (interval + 1));
    input.signals = signals;
    input.current = catalog_.rung(rung);
    input.interval_index = interval;
    return input;
  }

  scaler::PolicyInput WithFeedback(scaler::PolicyInput input,
                                   scaler::ActuationPhase phase,
                                   int target_rung, int attempt) {
    input.actuation.phase = phase;
    input.actuation.target = catalog_.rung(target_rung);
    input.actuation.attempt = attempt;
    return input;
  }

  Catalog catalog_;
};

using PolicyTypes =
    ::testing::Types<scaler::AutoScaler, scaler::DiagonalScaler>;
TYPED_TEST_SUITE(PolicyFaultTest, PolicyTypes);

TYPED_TEST(PolicyFaultTest, PendingResizeHoldsTheChannel) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);  // Would scale up if the channel were free.
  auto d = scaler->Decide(this->WithFeedback(
      this->Input(s, 3, 5), scaler::ActuationPhase::kPending, 4, 1));
  EXPECT_EQ(d.target.base_rung, 3);
  EXPECT_EQ(d.explanation.code,
            scaler::ExplanationCode::kHoldResizePending);
}

TYPED_TEST(PolicyFaultTest, FailedResizeBacksOffThenRetries) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);

  // Attempt 1 toward rung 4 failed: back off one interval.
  auto hold = scaler->Decide(this->WithFeedback(
      this->Input(s, 3, 10), scaler::ActuationPhase::kFailed, 4, 1));
  EXPECT_EQ(hold.target.base_rung, 3);
  EXPECT_EQ(hold.explanation.code,
            scaler::ExplanationCode::kHoldResizeBackoff);

  // Next interval: the retry fires toward the SAME target.
  auto retry = scaler->Decide(this->Input(s, 3, 11));
  EXPECT_EQ(retry.explanation.code,
            scaler::ExplanationCode::kScaleRetryResize);
  EXPECT_EQ(retry.target.base_rung, 4);
  // The audit trail records the retried request with its attempt number.
  ASSERT_FALSE(scaler->audit().empty());
  EXPECT_EQ(scaler->audit().back().resize_attempt, 2);
  EXPECT_EQ(scaler->audit().back().resize_outcome,
            scaler::ResizeOutcome::kRequested);
}

TYPED_TEST(PolicyFaultTest, ExponentialBackoffGrowsBetweenRetries) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);

  // Attempt 2 failed: backoff = base * multiplier^(2-1) = 2 intervals.
  auto hold = scaler->Decide(this->WithFeedback(
      this->Input(s, 3, 10), scaler::ActuationPhase::kFailed, 4, 2));
  EXPECT_EQ(hold.explanation.code,
            scaler::ExplanationCode::kHoldResizeBackoff);
  // Interval 11: still backing off.
  auto wait = scaler->Decide(this->Input(s, 3, 11));
  EXPECT_EQ(wait.explanation.code,
            scaler::ExplanationCode::kHoldResizeBackoff);
  EXPECT_EQ(wait.target.base_rung, 3);
  // Interval 12: retry due.
  auto retry = scaler->Decide(this->Input(s, 3, 12));
  EXPECT_EQ(retry.explanation.code,
            scaler::ExplanationCode::kScaleRetryResize);
}

TYPED_TEST(PolicyFaultTest, AbandonsAfterMaxAttempts) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);

  // The 4th failed attempt exhausts the retry budget.
  auto abandoned = scaler->Decide(this->WithFeedback(
      this->Input(s, 3, 10), scaler::ActuationPhase::kFailed, 4, 4));
  EXPECT_EQ(abandoned.target.base_rung, 3);
  EXPECT_EQ(abandoned.explanation.code,
            scaler::ExplanationCode::kHoldResizeAbandoned);
  // No retry is scheduled: the next cycle runs the normal logic (which may
  // request the resize afresh, attempt 1 — but never as kScaleRetryResize).
  auto next = scaler->Decide(this->Input(s, 3, 11));
  EXPECT_NE(next.explanation.code,
            scaler::ExplanationCode::kScaleRetryResize);
}

TYPED_TEST(PolicyFaultTest, RejectedTargetCoolsDown) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);

  auto rejected = scaler->Decide(this->WithFeedback(
      this->Input(s, 3, 10), scaler::ActuationPhase::kRejected, 4, 1));
  EXPECT_EQ(rejected.target.base_rung, 3);
  EXPECT_EQ(rejected.explanation.code,
            scaler::ExplanationCode::kHoldResizeRejected);

  // During the cooldown the scale-up path refuses the rejected target.
  auto held = scaler->Decide(this->Input(s, 3, 12));
  EXPECT_EQ(held.target.base_rung, 3);
  EXPECT_EQ(held.explanation.code,
            scaler::ExplanationCode::kHoldResizeRejected);

  // After the cooldown (10 intervals by default) the target is fair game.
  auto scaled = scaler->Decide(this->Input(s, 3, 25));
  EXPECT_GT(scaled.target.base_rung, 3);
}

TYPED_TEST(PolicyFaultTest, DegradedTelemetryForcesZeroDemandHold) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);  // Demand signals that would normally scale up.
  s.degraded = true;
  s.confidence = 0.4;

  for (int i = 0; i < 5; ++i) {
    auto d = scaler->Decide(this->Input(s, 3, i));
    // Degraded windows force demand 0: the container NEVER moves.
    EXPECT_EQ(d.target.base_rung, 3);
    EXPECT_EQ(d.explanation.code,
              scaler::ExplanationCode::kHoldDegradedTelemetry);
  }
}

TYPED_TEST(PolicyFaultTest, AppliedFeedbackSettlesAuditOutcome) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);
  auto up = scaler->Decide(this->Input(s, 3, 0));
  ASSERT_GT(up.target.base_rung, 3);
  ASSERT_EQ(scaler->audit().back().resize_outcome,
            scaler::ResizeOutcome::kRequested);

  auto healthy = this->Snapshot(up.target.base_rung, 100);
  // dbscale-lint: allow(discarded-status)
  (void)scaler->Decide(
      this->WithFeedback(this->Input(healthy, up.target.base_rung, 1),
                         scaler::ActuationPhase::kApplied,
                         up.target.base_rung, 1));
  const auto resizes = scaler->audit().Resizes();
  ASSERT_FALSE(resizes.empty());
  EXPECT_EQ(resizes.front()->resize_outcome,
            scaler::ResizeOutcome::kApplied);
}

TYPED_TEST(PolicyFaultTest, PendingMigrationHoldsWithDowntime) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);
  scaler::PolicyInput input = this->WithFeedback(
      this->Input(s, 3, 5), scaler::ActuationPhase::kPending, 4, 1);
  input.actuation.kind = scaler::ActuationKind::kMigration;
  input.actuation.downtime_intervals = 1;
  auto d = scaler->Decide(input);
  EXPECT_EQ(d.target.base_rung, 3);
  EXPECT_EQ(d.explanation.code,
            scaler::ExplanationCode::kHoldMigrationPending);
  EXPECT_DOUBLE_EQ(d.explanation.args[0], 1.0);  // attempt
  EXPECT_DOUBLE_EQ(d.explanation.args[1], 1.0);  // downtime intervals
}

TYPED_TEST(PolicyFaultTest, RejectedMigrationMeansHostSaturated) {
  auto scaler = this->MakeScaler(200);
  auto s = this->Snapshot(3, 400);
  this->SetCpuBottleneck(&s);
  scaler::PolicyInput input = this->WithFeedback(
      this->Input(s, 3, 10), scaler::ActuationPhase::kRejected, 4, 1);
  input.actuation.kind = scaler::ActuationKind::kMigration;
  auto saturated = scaler->Decide(input);
  EXPECT_EQ(saturated.target.base_rung, 3);
  EXPECT_EQ(saturated.explanation.code,
            scaler::ExplanationCode::kHoldHostSaturated);
  EXPECT_DOUBLE_EQ(saturated.explanation.args[0], 10.0);  // cooldown

  // The same cooldown as a rejected resize: the target stays refused.
  auto held = scaler->Decide(this->Input(s, 3, 12));
  EXPECT_EQ(held.target.base_rung, 3);
  EXPECT_EQ(held.explanation.code,
            scaler::ExplanationCode::kHoldResizeRejected);
}

// The Section 6 cycle both policies run around their own sizing: every
// shared hold, reached the same way under either policy.
TYPED_TEST(PolicyFaultTest, SharedCycleHolds) {
  using scaler::ExplanationCode;
  {
    auto scaler = this->MakeScaler(200);
    telemetry::SignalSnapshot warming;  // not yet a valid window
    auto d = scaler->Decide(this->Input(warming, 3, 0));
    EXPECT_EQ(d.target.base_rung, 3);
    EXPECT_EQ(d.explanation.code, ExplanationCode::kHoldWarmup);
  }
  {
    auto scaler = this->MakeScaler(200);
    auto s = this->Snapshot(3, 400);
    s.degraded = true;
    s.confidence = 0.5;
    EXPECT_EQ(scaler->Decide(this->Input(s, 3, 0)).explanation.code,
              ExplanationCode::kHoldDegradedTelemetry);
  }
  {
    // Latency far over the goal, but lock-bound: no resource would help.
    auto scaler = this->MakeScaler(200);
    auto s = this->Snapshot(3, 900);
    this->SetLockBound(&s);
    auto d = scaler->Decide(this->Input(s, 3, 0));
    EXPECT_EQ(d.target.base_rung, 3);
    EXPECT_EQ(d.explanation.code, ExplanationCode::kHoldLatencyNotResource);
  }
  {
    // CPU demand while the goal is met: the slack is kept as savings.
    auto scaler = this->MakeScaler(1000);
    auto s = this->Snapshot(3, 300);
    this->SetCpuBottleneck(&s);
    auto d = scaler->Decide(this->Input(s, 3, 0));
    EXPECT_EQ(d.target.base_rung, 3);
    EXPECT_EQ(d.explanation.code, ExplanationCode::kHoldGoalMetSavings);
  }
  {
    // The decision after a scale-up still sees bad latency: cooldown.
    auto scaler = this->MakeScaler(200);
    auto s = this->Snapshot(3, 400);
    this->SetCpuBottleneck(&s);
    const int up = scaler->Decide(this->Input(s, 3, 0)).target.base_rung;
    ASSERT_GT(up, 3);
    auto s2 = this->Snapshot(up, 400);
    this->SetCpuBottleneck(&s2);
    auto d = scaler->Decide(this->Input(s2, up, 1));
    EXPECT_EQ(d.target.base_rung, up);
    EXPECT_EQ(d.explanation.code, ExplanationCode::kHoldUpCooldown);
  }
  {
    // Medium sensitivity: two patience holds, then the third idle
    // decision acts.
    auto scaler = this->MakeScaler(1000);
    auto s = this->Snapshot(5, 100);
    this->SetAllIdle(&s);
    for (int i = 0; i < 2; ++i) {
      auto d = scaler->Decide(this->Input(s, 5, i));
      EXPECT_EQ(d.explanation.code, ExplanationCode::kHoldDownPatience) << i;
      EXPECT_DOUBLE_EQ(d.explanation.args[0], i + 1.0);
      EXPECT_DOUBLE_EQ(d.explanation.args[1], 3.0);
    }
    EXPECT_NE(scaler->Decide(this->Input(s, 5, 2)).explanation.code,
              ExplanationCode::kHoldDownPatience);
  }
}

// Ballooning is Auto's alone.
using AutoScalerFaultTest = PolicyFaultTest<scaler::AutoScaler>;

TEST_F(AutoScalerFaultTest, FailedResizeAbortsBallooning) {
  auto scaler = MakeScaler(1000);
  auto s = Snapshot(5, 100);
  SetAllIdle(&s);
  s.physical_reads_per_sec = 10.0;

  // Low demand with medium patience: the third decision starts a balloon
  // pass.
  scaler::ScalingDecision d0;
  for (int i = 0; i < 3; ++i) d0 = scaler->Decide(Input(s, 5, i));
  ASSERT_TRUE(scaler->balloon().active());
  ASSERT_TRUE(d0.memory_limit_mb.has_value());

  // A resize failure mid-balloon aborts the pass and restores the full
  // allocation.
  auto d1 = scaler->Decide(WithFeedback(
      Input(s, 5, 3), scaler::ActuationPhase::kFailed, 4, 1));
  EXPECT_FALSE(scaler->balloon().active());
  ASSERT_TRUE(d1.memory_limit_mb.has_value());
  EXPECT_DOUBLE_EQ(*d1.memory_limit_mb,
                   catalog_.rung(5).resources.memory_mb);
}

// ---------------------------------------------------------------------------
// Closed-loop integration under fault profiles.

sim::SimulationOptions FaultSimOptions() {
  sim::SimulationOptions options;
  options.catalog = Catalog::MakeLockStep();
  options.workload = workload::MakeCpuioWorkload();
  options.trace = *workload::MakeTrace2LongBurst().Subsampled(8);
  options.interval_duration = Duration::Seconds(20);
  options.seed = 17;
  options.telemetry.latency_aggregate = telemetry::LatencyAggregate::kP95;
  return options;
}

Result<sim::RunResult> RunAutoWithFaults(const sim::SimulationOptions& options,
                                         scaler::AuditLog const** audit_out) {
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 900.0};
  auto scaler = scaler::AutoScaler::Create(options.catalog, knobs);
  DBSCALE_CHECK_OK(scaler.status());
  static std::unique_ptr<scaler::AutoScaler> keep_alive;
  keep_alive = std::move(scaler).value();
  if (audit_out != nullptr) *audit_out = &keep_alive->audit();
  return sim::RunWithPolicy(options, keep_alive.get(), 3);
}

/// Direction reversals in the rung series: up-move directly followed by a
/// down-move or vice versa (ignoring holds in between).
int DirectionReversals(const sim::RunResult& run) {
  int reversals = 0;
  int last_direction = 0;
  for (size_t i = 1; i < run.intervals.size(); ++i) {
    const int delta = run.intervals[i].container.base_rung -
                      run.intervals[i - 1].container.base_rung;
    if (delta == 0) continue;
    const int direction = delta > 0 ? 1 : -1;
    if (last_direction != 0 && direction != last_direction) ++reversals;
    last_direction = direction;
  }
  return reversals;
}

TEST(SimulationFaultTest, FaultyRunIsDeterministic) {
  sim::SimulationOptions options = FaultSimOptions();
  options.fault = AcceptanceProfile();
  options.fault.telemetry.drop_probability = 0.05;
  auto a = RunAutoWithFaults(options, nullptr);
  auto b = RunAutoWithFaults(options, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->total_cost, b->total_cost);
  EXPECT_DOUBLE_EQ(a->latency_p95_ms, b->latency_p95_ms);
  EXPECT_EQ(a->container_changes, b->container_changes);
  EXPECT_EQ(a->resize_attempts, b->resize_attempts);
  EXPECT_EQ(a->resize_failures, b->resize_failures);
  EXPECT_EQ(a->telemetry_dropped_samples, b->telemetry_dropped_samples);
}

TEST(SimulationFaultTest, ClosedLoopStableUnderAcceptanceProfile) {
  sim::SimulationOptions options = FaultSimOptions();
  options.fault = AcceptanceProfile();
  const scaler::AuditLog* audit = nullptr;
  auto run = RunAutoWithFaults(options, &audit);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // No oscillation: at most one direction reversal per 10 intervals.
  const int reversals = DirectionReversals(*run);
  EXPECT_LE(10 * reversals, static_cast<int>(run->intervals.size()))
      << "reversals=" << reversals;
  // The loop still scales (it does not deadlock into a permanent hold).
  EXPECT_GT(run->container_changes, 0);
  // Delayed actuation: requests outnumber (or equal) applied changes.
  EXPECT_GE(run->resize_attempts,
            static_cast<uint64_t>(run->container_changes));

  // Every failed resize shows up in the audit log with its retry trail.
  ASSERT_NE(audit, nullptr);
  if (run->resize_failures > 0) {
    int failed_or_abandoned = 0;
    for (const auto* record : audit->Resizes()) {
      if (record->resize_outcome == scaler::ResizeOutcome::kFailed ||
          record->resize_outcome == scaler::ResizeOutcome::kAbandoned) {
        ++failed_or_abandoned;
      }
    }
    EXPECT_GT(failed_or_abandoned, 0);
  }
}

TEST(SimulationFaultTest, AlwaysFailingResizesNeverApplyButNeverWedge) {
  sim::SimulationOptions options = FaultSimOptions();
  options.fault.resize.failure_probability = 1.0;
  options.fault.resize.min_latency_intervals = 1;
  options.fault.resize.max_latency_intervals = 1;
  const scaler::AuditLog* audit = nullptr;
  auto run = RunAutoWithFaults(options, &audit);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run->container_changes, 0);
  EXPECT_GT(run->resize_failures, 0u);
  // Retries happened (attempt > 1 requests) and were eventually abandoned.
  bool saw_retry = false, saw_abandoned = false, saw_backoff = false;
  for (const auto& interval : run->intervals) {
    if (interval.decision_code ==
        scaler::ExplanationCode::kScaleRetryResize) {
      saw_retry = true;
    }
    if (interval.decision_code ==
        scaler::ExplanationCode::kHoldResizeAbandoned) {
      saw_abandoned = true;
    }
    if (interval.decision_code ==
        scaler::ExplanationCode::kHoldResizeBackoff) {
      saw_backoff = true;
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_backoff);
  EXPECT_TRUE(saw_abandoned);
  ASSERT_NE(audit, nullptr);
  bool audit_has_failed_trail = false;
  for (const auto* record : audit->Resizes()) {
    if ((record->resize_outcome == scaler::ResizeOutcome::kFailed ||
         record->resize_outcome == scaler::ResizeOutcome::kAbandoned) &&
        record->resize_attempt >= 1) {
      audit_has_failed_trail = true;
    }
  }
  EXPECT_TRUE(audit_has_failed_trail);
}

TEST(SimulationFaultTest, DroppedTelemetryDegradesWindowsAndHoldsDemand) {
  sim::SimulationOptions options = FaultSimOptions();
  options.fault.telemetry.drop_probability = 0.5;
  auto run = RunAutoWithFaults(options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_GT(run->telemetry_dropped_samples, 0u);
  EXPECT_GT(run->degraded_windows, 0u);
  int degraded_decisions = 0;
  for (const auto& interval : run->intervals) {
    if (interval.decision_code ==
        scaler::ExplanationCode::kHoldDegradedTelemetry) {
      ++degraded_decisions;
      // A degraded window never produces a demand step.
      EXPECT_FALSE(interval.resized);
    }
  }
  EXPECT_GT(degraded_decisions, 0);
}

// ---------------------------------------------------------------------------
// Fleet integration: determinism across thread counts under faults.

TEST(FleetFaultTest, FaultyDigestIsThreadCountInvariant) {
  const Catalog catalog = Catalog::MakeLockStep();
  fleet::FleetOptions options;
  options.num_tenants = 32;
  options.num_intervals = 288;
  options.seed = 7;
  options.block_size = 7;  // five blocks: 7, 7, 7, 7 and 4 tenants
  options.fault.resize.failure_probability = 0.2;
  options.fault.resize.min_latency_intervals = 1;
  options.fault.resize.max_latency_intervals = 2;

  options.num_threads = 1;
  auto serial = fleet::FleetSimulator(catalog, options).Run();
  options.num_threads = 4;
  auto parallel = fleet::FleetSimulator(catalog, options).Run();
  ASSERT_TRUE(serial.ok() && parallel.ok());

  EXPECT_EQ(fleet::TelemetryDigest(*serial),
            fleet::TelemetryDigest(*parallel));
  EXPECT_EQ(serial->resize_failures, parallel->resize_failures);
  EXPECT_EQ(serial->resize_retries, parallel->resize_retries);
  EXPECT_GT(serial->resize_failures, 0u);
  EXPECT_GT(serial->resize_retries, 0u);
}

TEST(FleetFaultTest, FaultyRunDiffersFromNullRun) {
  const Catalog catalog = Catalog::MakeLockStep();
  fleet::FleetOptions options;
  options.num_tenants = 16;
  options.num_intervals = 288;
  options.seed = 7;
  options.num_threads = 1;
  auto null_run = fleet::FleetSimulator(catalog, options).Run();
  options.fault = AcceptanceProfile();
  auto faulty = fleet::FleetSimulator(catalog, options).Run();
  ASSERT_TRUE(null_run.ok() && faulty.ok());
  EXPECT_EQ(null_run->resize_failures, 0u);
  EXPECT_NE(fleet::TelemetryDigest(*null_run),
            fleet::TelemetryDigest(*faulty));
}

}  // namespace
}  // namespace dbscale::fault
