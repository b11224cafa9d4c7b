// Unit tests of the AutoScaler closed-loop decision logic against synthetic
// signal snapshots (the end-to-end behaviour is covered by simulation
// integration tests).

#include "src/scaler/autoscaler.h"

#include <gtest/gtest.h>

#include "src/common/check.h"

namespace dbscale::scaler {
namespace {

using container::Catalog;
using container::ResourceKind;

class AutoScalerTest : public ::testing::Test {
 protected:
  AutoScalerTest() : catalog_(Catalog::MakeLockStep()) {}

  std::unique_ptr<AutoScaler> MakeScaler(
      TenantKnobs knobs, GuardrailOptions options = {}) {
    auto result = AutoScaler::Create(catalog_, knobs, options);
    DBSCALE_CHECK_OK(result.status());
    return std::move(result).value();
  }

  TenantKnobs GoalKnobs(double target_ms,
                        Sensitivity sensitivity = Sensitivity::kMedium) {
    TenantKnobs knobs;
    knobs.latency_goal =
        LatencyGoal{telemetry::LatencyAggregate::kP95, target_ms};
    knobs.sensitivity = sensitivity;
    return knobs;
  }

  /// A healthy snapshot at the given rung: moderate everything.
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
    s->wait_pct_by_class[static_cast<size_t>(
        telemetry::WaitClass::kLock)] = 93.0;
    s->total_wait_ms = 5000.0;
  }

  PolicyInput Input(const telemetry::SignalSnapshot& signals, int rung,
                    int interval) {
    PolicyInput input;
    input.now = SimTime::Zero() + Duration::Seconds(20.0 * (interval + 1));
    input.signals = signals;
    input.current = catalog_.rung(rung);
    input.interval_index = interval;
    return input;
  }

  Catalog catalog_;
};

TEST_F(AutoScalerTest, HoldsWhileWarmingUp) {
  auto scaler = MakeScaler(GoalKnobs(200));
  telemetry::SignalSnapshot invalid;
  invalid.valid = false;
  auto d = scaler->Decide(Input(invalid, 3, 0));
  EXPECT_EQ(d.target.id, catalog_.rung(3).id);
}

TEST_F(AutoScalerTest, ScalesUpOnBadLatencyWithDemand) {
  auto scaler = MakeScaler(GoalKnobs(200));
  auto s = Snapshot(3, /*latency=*/400);
  SetCpuBottleneck(&s);
  auto d = scaler->Decide(Input(s, 3, 0));
  EXPECT_GT(d.target.base_rung, 3);
  EXPECT_NE(d.explanation.ToString().find("cpu"), std::string::npos);
}

TEST_F(AutoScalerTest, NoScaleUpWhenGoalMet) {
  // Demand high but latency within goal: hold for cost (Section 6).
  auto scaler = MakeScaler(GoalKnobs(1000));
  auto s = Snapshot(3, /*latency=*/300);
  SetCpuBottleneck(&s);
  auto d = scaler->Decide(Input(s, 3, 0));
  EXPECT_EQ(d.target.id, catalog_.rung(3).id);
  EXPECT_NE(d.explanation.ToString().find("goal"), std::string::npos);
}

TEST_F(AutoScalerTest, NoScaleUpWithoutResourceDemand) {
  // Lock-bound latency violation: scaling would not help (Figure 13).
  auto scaler = MakeScaler(GoalKnobs(200));
  auto s = Snapshot(3, /*latency=*/900);
  SetLockBound(&s);
  auto d = scaler->Decide(Input(s, 3, 0));
  EXPECT_EQ(d.target.id, catalog_.rung(3).id);
  EXPECT_NE(d.explanation.ToString().find("Lock"), std::string::npos);
}

TEST_F(AutoScalerTest, UpCooldownPreventsConsecutiveJumps) {
  auto scaler = MakeScaler(GoalKnobs(200));
  auto s = Snapshot(3, 400);
  SetCpuBottleneck(&s);
  auto d1 = scaler->Decide(Input(s, 3, 0));
  int rung1 = d1.target.base_rung;
  ASSERT_GT(rung1, 3);
  // Next interval still looks bad (stale backlog): held by cooldown.
  auto s2 = Snapshot(rung1, 400);
  SetCpuBottleneck(&s2);
  auto d2 = scaler->Decide(Input(s2, rung1, 1));
  EXPECT_EQ(d2.target.base_rung, rung1);
  EXPECT_NE(d2.explanation.ToString().find("cooldown"), std::string::npos);
  // After the cooldown it may scale again.
  auto d3 = scaler->Decide(Input(s2, rung1, 2));
  EXPECT_GT(d3.target.base_rung, rung1);
}

TEST_F(AutoScalerTest, ScaleDownAfterPatience) {
  auto scaler = MakeScaler(GoalKnobs(1000));
  auto s = Snapshot(5, /*latency=*/100);
  SetAllIdle(&s);
  // Medium sensitivity: 3 consecutive low intervals, then the memory
  // shrink is validated by a balloon pass before the rung drops.
  auto d0 = scaler->Decide(Input(s, 5, 0));
  EXPECT_EQ(d0.target.base_rung, 5);
  EXPECT_FALSE(d0.memory_limit_mb.has_value());
  auto d1 = scaler->Decide(Input(s, 5, 1));
  EXPECT_EQ(d1.target.base_rung, 5);
  EXPECT_FALSE(d1.memory_limit_mb.has_value());
  auto d2 = scaler->Decide(Input(s, 5, 2));
  EXPECT_EQ(d2.target.base_rung, 5);
  EXPECT_TRUE(d2.memory_limit_mb.has_value());  // balloon started
  int rung_after = 5;
  for (int i = 3; i < 12 && rung_after == 5; ++i) {
    rung_after = scaler->Decide(Input(s, 5, i)).target.base_rung;
  }
  EXPECT_EQ(rung_after, 4);
}

TEST_F(AutoScalerTest, SensitivityControlsDownPatience) {
  for (auto [sensitivity, expected_intervals] :
       std::vector<std::pair<Sensitivity, int>>{
           {Sensitivity::kLow, 1},
           {Sensitivity::kMedium, 3},
           {Sensitivity::kHigh, 5}}) {
    auto scaler = MakeScaler(GoalKnobs(1000, sensitivity));
    auto s = Snapshot(5, 100);
    SetAllIdle(&s);
    // The first scale-down action (the balloon start) lands exactly when
    // the sensitivity's patience is satisfied.
    int acted_at = -1;
    for (int i = 0; i < 8; ++i) {
      auto d = scaler->Decide(Input(s, 5, i));
      if (d.memory_limit_mb.has_value() || d.target.base_rung < 5) {
        acted_at = i;
        break;
      }
    }
    EXPECT_EQ(acted_at, expected_intervals - 1)
        << SensitivityToString(sensitivity);
  }
}

TEST_F(AutoScalerTest, LowSensitivityNeedsPersistentViolation) {
  auto scaler = MakeScaler(GoalKnobs(200, Sensitivity::kLow));
  auto s = Snapshot(3, 400);
  SetCpuBottleneck(&s);
  auto d0 = scaler->Decide(Input(s, 3, 0));
  EXPECT_EQ(d0.target.base_rung, 3);  // first violation ignored
  auto d1 = scaler->Decide(Input(s, 3, 1));
  EXPECT_GT(d1.target.base_rung, 3);  // second fires
}

TEST_F(AutoScalerTest, MemoryShrinkGoesThroughBalloon) {
  // LOW sensitivity: a down patience of one interval.
  auto scaler = MakeScaler(GoalKnobs(1000, Sensitivity::kLow));
  auto s = Snapshot(5, 100);
  SetAllIdle(&s);
  s.physical_reads_per_sec = 10.0;
  // First decision: patience satisfied, but memory blocks the lock-step
  // shrink -> a balloon starts instead of a resize.
  auto d = scaler->Decide(Input(s, 5, 0));
  EXPECT_EQ(d.target.base_rung, 5);
  ASSERT_TRUE(d.memory_limit_mb.has_value());
  EXPECT_LT(*d.memory_limit_mb, catalog_.rung(5).resources.memory_mb);
  EXPECT_TRUE(scaler->balloon().active());
  // Healthy I/O through the shrink: balloon completes, then the container
  // steps down.
  int rung_after = 5;
  for (int i = 1; i < 10; ++i) {
    auto di = scaler->Decide(Input(s, 5, i));
    if (di.target.base_rung < 5) {
      rung_after = di.target.base_rung;
      break;
    }
  }
  EXPECT_EQ(rung_after, 4);
}

TEST_F(AutoScalerTest, BalloonAbortBlocksMemoryShrink) {
  // LOW sensitivity: a down patience of one interval.
  auto scaler = MakeScaler(GoalKnobs(1000, Sensitivity::kLow));
  auto s = Snapshot(5, 100);
  SetAllIdle(&s);
  s.physical_reads_per_sec = 10.0;
  // dbscale-lint: allow(discarded-status)
  (void)scaler->Decide(Input(s, 5, 0));  // balloon starts
  ASSERT_TRUE(scaler->balloon().active());
  // I/O explodes as memory shrinks: abort, restore, and no resize.
  auto bad = s;
  bad.physical_reads_per_sec = 5000.0;
  auto d = scaler->Decide(Input(bad, 5, 1));
  EXPECT_EQ(d.target.base_rung, 5);
  ASSERT_TRUE(d.memory_limit_mb.has_value());
  EXPECT_DOUBLE_EQ(*d.memory_limit_mb,
                   catalog_.rung(5).resources.memory_mb);
  // The balloon's 10-tick cooldown blocks a new pass, so memory stays.
  for (int i = 2; i < 6; ++i) {
    auto di = scaler->Decide(Input(s, 5, i));
    EXPECT_EQ(di.target.base_rung, 5) << i;
  }
}

TEST_F(AutoScalerTest, DemandReturnMidBalloonRevertsMemory) {
  auto scaler = MakeScaler(GoalKnobs(200));
  auto idle = Snapshot(5, 100);
  SetAllIdle(&idle);
  for (int i = 0; i < 3; ++i) {
    // Medium patience: the third idle decision starts the balloon.
    // dbscale-lint: allow(discarded-status)
    (void)scaler->Decide(Input(idle, 5, i));
  }
  ASSERT_TRUE(scaler->balloon().active());
  auto busy = Snapshot(5, 400);
  SetCpuBottleneck(&busy);
  auto d = scaler->Decide(Input(busy, 5, 3));
  EXPECT_FALSE(scaler->balloon().active());
  ASSERT_TRUE(d.memory_limit_mb.has_value());
  EXPECT_DOUBLE_EQ(*d.memory_limit_mb,
                   catalog_.rung(5).resources.memory_mb);
  EXPECT_GT(d.target.base_rung, 5);
}

TEST_F(AutoScalerTest, GoalMetDemandMidBalloonRevertsMemory) {
  // Demand returns mid-balloon while the goal is still met: no scale-up,
  // but the balloon is cancelled and the memory restored.
  auto scaler = MakeScaler(GoalKnobs(1000));
  auto idle = Snapshot(5, 100);
  SetAllIdle(&idle);
  for (int i = 0; i < 3; ++i) {
    // Medium patience: the third idle decision starts the balloon.
    // dbscale-lint: allow(discarded-status)
    (void)scaler->Decide(Input(idle, 5, i));
  }
  ASSERT_TRUE(scaler->balloon().active());
  auto busy = Snapshot(5, 300);
  SetCpuBottleneck(&busy);
  auto d = scaler->Decide(Input(busy, 5, 3));
  EXPECT_EQ(d.explanation.code, ExplanationCode::kHoldBalloonRevert);
  EXPECT_EQ(d.target.id, catalog_.rung(5).id);
  ASSERT_TRUE(d.memory_limit_mb.has_value());
  EXPECT_DOUBLE_EQ(*d.memory_limit_mb,
                   catalog_.rung(5).resources.memory_mb);
  EXPECT_FALSE(scaler->balloon().active());
}

TEST_F(AutoScalerTest, SaturationGuardBlocksShrinkIntoCliff) {
  // LOW sensitivity: a down patience of one interval; latency at 10% of
  // the goal means slack wants to shrink.
  auto scaler = MakeScaler(GoalKnobs(1000, Sensitivity::kLow));
  auto s = Snapshot(5, 100);
  SetAllIdle(&s);
  // CPU busy enough that one rung down would exceed the 75% guard:
  // usage = 65% of 4 cores = 2.6; rung 4->3 gives 3 cores -> 87%.
  s.resources[static_cast<size_t>(ResourceKind::kCpu)].utilization_pct =
      65.0;
  for (int i = 0; i < 6; ++i) {
    auto d = scaler->Decide(Input(s, 4, i));
    EXPECT_EQ(d.target.base_rung, 4) << i;
  }
}

TEST_F(AutoScalerTest, LatencySlackShrinksDespiteSteadyDemand) {
  // Per-dimension specs keep the memory while the other dimensions drop a
  // rung, so the shrink needs no balloon pass.
  catalog_ = Catalog::MakePerDimension();
  auto scaler = MakeScaler(GoalKnobs(1000));
  auto s = Snapshot(5, /*latency=*/100);  // 10% of goal: lots of slack
  // Utilization moderate-but-not-low: no low-demand estimate, and the
  // saturation guard has room (30% usage fits one rung down).
  for (container::ResourceKind kind : container::kAllResources) {
    s.resources[static_cast<size_t>(kind)].utilization_pct = 30.0;
  }
  for (int i = 0; i < 2; ++i) {
    // Medium patience: two holds before the third decision shrinks.
    // dbscale-lint: allow(discarded-status)
    (void)scaler->Decide(Input(s, 5, i));
  }
  auto d = scaler->Decide(Input(s, 5, 2));
  EXPECT_LT(d.target.base_rung, 5);
  EXPECT_EQ(d.explanation.code, ExplanationCode::kScaleDownLatencySlack);
  EXPECT_NE(d.explanation.ToString().find("within goal"), std::string::npos);
}

TEST_F(AutoScalerTest, PureDemandModeWithoutGoal) {
  // No latency goal: scale on demand alone (Section 2.3).
  TenantKnobs knobs;  // no goal, no budget
  auto scaler = MakeScaler(knobs);
  auto busy = Snapshot(3, 1.0);
  SetCpuBottleneck(&busy);
  auto d = scaler->Decide(Input(busy, 3, 0));
  EXPECT_GT(d.target.base_rung, 3);
}

TEST_F(AutoScalerTest, BudgetConstrainsScaleUp) {
  TenantKnobs knobs = GoalKnobs(200);
  knobs.budget = BudgetKnob{/*total=*/7.0 * 100 + 53.0, /*intervals=*/100};
  GuardrailOptions options;
  options.budget_strategy = BudgetStrategy::kAggressive;
  auto scaler = MakeScaler(knobs, options);
  ASSERT_NE(scaler->budget(), nullptr);
  // Available budget at start: D = B - 99*7 = 60 -> best affordable is S5.
  auto s = Snapshot(3, 800);
  SetCpuBottleneck(&s);
  auto& cpu = s.resources[static_cast<size_t>(ResourceKind::kCpu)];
  cpu.utilization_pct = 98.0;
  cpu.wait_ms_per_request = 200.0;  // extreme: wants +2 rungs (S6 = 90)
  auto d = scaler->Decide(Input(s, 3, 0));
  EXPECT_LE(d.target.price_per_interval, 60.0);
  EXPECT_NE(d.explanation.ToString().find("budget"), std::string::npos);
}

TEST_F(AutoScalerTest, BudgetChargingFlowsThroughManager) {
  TenantKnobs knobs = GoalKnobs(200);
  knobs.budget = BudgetKnob{1000.0, 10};
  auto scaler = MakeScaler(knobs);
  double before = scaler->budget()->available();
  // The decision cycle carries the just-ended interval's bill; Decide
  // charges it before deciding.
  PolicyInput input = Input(Snapshot(3, 100), 3, 0);
  input.charged_cost = 45.0;
  // dbscale-lint: allow(discarded-status)
  (void)scaler->Decide(input);
  EXPECT_DOUBLE_EQ(scaler->budget()->spent(), 45.0);
  EXPECT_LT(scaler->budget()->available(), before);
}

TEST_F(AutoScalerTest, CreateRejectsInvalidKnobs) {
  TenantKnobs bad;
  bad.latency_goal = LatencyGoal{telemetry::LatencyAggregate::kP95, -5.0};
  EXPECT_FALSE(AutoScaler::Create(catalog_, bad).ok());
  TenantKnobs bad_budget;
  bad_budget.budget = BudgetKnob{3.0, 100};  // below n * Cmin
  EXPECT_FALSE(AutoScaler::Create(catalog_, bad_budget).ok());
}

TEST_F(AutoScalerTest, ExplanationsAlwaysPresent) {
  auto scaler = MakeScaler(GoalKnobs(500));
  for (int i = 0; i < 5; ++i) {
    auto s = Snapshot(3, 100.0 * (i + 1));
    auto d = scaler->Decide(Input(s, 3, i));
    // Every decision carries a structured code, and the code renders text.
    EXPECT_TRUE(d.explanation.set());
    EXPECT_NE(d.explanation.code, ExplanationCode::kUnset);
    EXPECT_FALSE(d.explanation.ToString().empty());
  }
}

}  // namespace
}  // namespace dbscale::scaler
