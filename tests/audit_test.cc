#include "src/scaler/audit.h"

#include <gtest/gtest.h>

#include "src/scaler/autoscaler.h"

namespace dbscale::scaler {
namespace {

using container::Catalog;

constexpr std::array<int, container::kNumResources> kNoSteps{};

PolicyInput MakeInput(const Catalog& catalog, int rung, int interval,
                      double latency) {
  PolicyInput input;
  input.now = SimTime::Zero() + Duration::Seconds(20.0 * (interval + 1));
  input.signals.valid = true;
  input.signals.latency_ms = latency;
  input.current = catalog.rung(rung);
  input.interval_index = interval;
  return input;
}

TEST(AuditLogTest, RecordsDecisions) {
  Catalog catalog = Catalog::MakeLockStep();
  AuditLog log;
  CategorizedSignals cats;
  cats.valid = true;
  DemandEstimate estimate;
  ScalingDecision decision;
  decision.target = catalog.rung(4);
  decision.explanation = Explanation(ExplanationCode::kScaleUpDemand,
                                     "Scale-up: cpu bottleneck");

  log.Record(MakeInput(catalog, 3, 7, 150.0), cats, estimate, decision);
  ASSERT_EQ(log.size(), 1u);
  const AuditRecord& r = log.back();
  EXPECT_EQ(r.interval_index, 7);
  EXPECT_EQ(r.from_container, "S4");
  EXPECT_EQ(r.to_container, "S5");
  EXPECT_TRUE(r.resized);
  EXPECT_DOUBLE_EQ(r.latency_ms, 150.0);
  EXPECT_NE(r.ToString().find("Scale-up"), std::string::npos);
  EXPECT_NE(r.ToString().find("->"), std::string::npos);
}

TEST(AuditLogTest, HoldIsNotAResize) {
  Catalog catalog = Catalog::MakeLockStep();
  AuditLog log;
  ScalingDecision hold;
  hold.target = catalog.rung(3);
  hold.explanation = Explanation(ExplanationCode::kHoldDemandSteady);
  log.Record(MakeInput(catalog, 3, 0, 100.0), CategorizedSignals{},
             DemandEstimate{}, hold);
  EXPECT_FALSE(log.back().resized);
  EXPECT_TRUE(log.Resizes().empty());
  EXPECT_NE(log.back().ToString().find("=="), std::string::npos);
}

TEST(AuditLogTest, BoundedRetention) {
  Catalog catalog = Catalog::MakeLockStep();
  AuditLog log(4);
  ScalingDecision hold;
  hold.target = catalog.rung(3);
  for (int i = 0; i < 10; ++i) {
    log.Record(MakeInput(catalog, 3, i, 100.0), CategorizedSignals{},
               DemandEstimate{}, hold);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.at(0).interval_index, 6);
}

TEST(AuditLogTest, CsvEscapesDelimiters) {
  Catalog catalog = Catalog::MakeLockStep();
  AuditLog log;
  ScalingDecision d;
  d.target = catalog.rung(3);
  d.explanation = Explanation(ExplanationCode::kNote, "Hold: a, b\nc");
  log.Record(MakeInput(catalog, 3, 0, 100.0), CategorizedSignals{},
             DemandEstimate{}, d);
  std::string csv = log.ToCsv();
  // The field carrying delimiters is RFC 4180-quoted, not mangled.
  EXPECT_NE(csv.find("\"Hold: a, b\nc\""), std::string::npos);
  // The stable code column precedes the rendered text.
  EXPECT_NE(csv.find(",code,explanation"), std::string::npos);
  EXPECT_NE(csv.find(",note,"), std::string::npos);
}

TEST(AuditLogTest, ToStringTailsLastN) {
  Catalog catalog = Catalog::MakeLockStep();
  AuditLog log;
  ScalingDecision hold;
  hold.target = catalog.rung(3);
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeInput(catalog, 3, i, 100.0), CategorizedSignals{},
               DemandEstimate{}, hold);
  }
  std::string tail = log.ToString(2);
  EXPECT_EQ(std::count(tail.begin(), tail.end(), '\n'), 2);
  EXPECT_NE(tail.find("[   3]"), std::string::npos);
  EXPECT_NE(tail.find("[   4]"), std::string::npos);
}

TEST(AuditLogTest, AutoScalerPopulatesAudit) {
  Catalog catalog = Catalog::MakeLockStep();
  TenantKnobs knobs;
  knobs.latency_goal =
      LatencyGoal{telemetry::LatencyAggregate::kP95, 200.0};
  auto scaler = AutoScaler::Create(catalog, knobs).value();
  for (int i = 0; i < 3; ++i) {
    // Decisions only feed the audit log here; outputs are irrelevant.
    (void)scaler->Decide(  // dbscale-lint: allow(discarded-status)
        MakeInput(catalog, 3, i, 100.0));
  }
  EXPECT_EQ(scaler->audit().size(), 3u);
  EXPECT_FALSE(scaler->audit().back().explanation.ToString().empty());
  EXPECT_TRUE(scaler->audit().back().categories.valid);
}

TEST(AuditLogTest, HoldsBeforeCategorizingRecordNoCategories) {
  // A hold decided before the signals were categorized (actuation
  // feedback, warm-up, degraded telemetry) records no categories or
  // estimate, not the previous interval's.
  Catalog catalog = Catalog::MakeLockStep();
  TenantKnobs knobs;
  knobs.latency_goal =
      LatencyGoal{telemetry::LatencyAggregate::kP95, 200.0};
  auto scaler = AutoScaler::Create(catalog, knobs).value();
  const AuditLog& audit = scaler->audit();
  int interval = 0;
  auto decide = [&](PolicyInput input) {
    // dbscale-lint: allow(discarded-status)
    (void)scaler->Decide(input);
    ++interval;
  };

  decide(MakeInput(catalog, 3, interval, 100.0));
  ASSERT_TRUE(audit.back().categories.valid);
  ASSERT_NE(audit.back().estimate_steps(), kNoSteps);

  PolicyInput degraded = MakeInput(catalog, 3, interval, 100.0);
  degraded.signals.degraded = true;
  decide(degraded);
  EXPECT_EQ(audit.back().explanation.code,
            ExplanationCode::kHoldDegradedTelemetry);
  EXPECT_FALSE(audit.back().categories.valid);
  EXPECT_EQ(audit.back().estimate_steps(), kNoSteps);

  decide(MakeInput(catalog, 3, interval, 100.0));
  PolicyInput warming = MakeInput(catalog, 3, interval, 100.0);
  warming.signals.valid = false;
  decide(warming);
  EXPECT_EQ(audit.back().explanation.code, ExplanationCode::kHoldWarmup);
  EXPECT_FALSE(audit.back().categories.valid);
  EXPECT_EQ(audit.back().estimate_steps(), kNoSteps);

  decide(MakeInput(catalog, 3, interval, 100.0));
  PolicyInput pending = MakeInput(catalog, 3, interval, 100.0);
  pending.actuation.phase = ActuationPhase::kPending;
  pending.actuation.target = catalog.rung(4);
  pending.actuation.attempt = 1;
  decide(pending);
  EXPECT_EQ(audit.back().explanation.code,
            ExplanationCode::kHoldResizePending);
  EXPECT_FALSE(audit.back().categories.valid);
  EXPECT_EQ(audit.back().estimate_steps(), kNoSteps);
}

}  // namespace
}  // namespace dbscale::scaler
