// Resilience under injected faults: the same bursty workload run with a
// null fault plan and with the acceptance fault profile (10% transient
// resize failures, 1-2 billing intervals of actuation latency).
//
// Shows the fault/resilience surface end to end:
//   * FaultPlanOptions on SimConfig — one validated bundle,
//   * the async resize lifecycle (Pending -> Applied | Failed) with the
//     scaler guardrails' bounded retry + exponential backoff,
//   * the audit trail recording every request's outcome and attempt count,
//   * closed-loop stability: the loop converges instead of oscillating,
//   * the same guardrails under the Diagonal policy on the flexible
//     per-dimension catalog.
//
// ctest runs it as example_faulty_resize: it checks that the faulty loop
// converges, that both policies' audit logs show the retry trail, and that
// the Diagonal run is run-twice bit-identical, and exits non-zero naming
// any contract that broke.

#include <cstdio>
#include <memory>
#include <string>

#include "examples/contracts.h"
#include "src/common/string_util.h"
#include "src/scaler/autoscaler.h"
#include "src/scaler/diagonal.h"
#include "src/sim/report.h"
#include "src/sim/sim_config.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"

using namespace dbscale;  // NOLINT: example brevity

namespace {

SimConfig BaseConfig() {
  SimConfig config;
  config.simulation.catalog = container::Catalog::MakeLockStep();
  config.simulation.workload = workload::MakeCpuioWorkload();
  config.simulation.trace = *workload::MakeTrace2LongBurst().Subsampled(4);
  config.simulation.interval_duration = Duration::Seconds(20);
  config.simulation.seed = 17;
  config.simulation.initial_rung = 3;
  config.knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 900.0};
  return config;
}

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

struct AuditSummary {
  int requested = 0;
  int applied = 0;
  int failed = 0;
  int rejected = 0;
  int abandoned = 0;
  int max_attempt = 0;
};

AuditSummary SummarizeAudit(const scaler::AuditLog& audit) {
  AuditSummary s;
  for (const auto* record : audit.Resizes()) {
    switch (record->resize_outcome) {
      case scaler::ResizeOutcome::kRequested: ++s.requested; break;
      case scaler::ResizeOutcome::kApplied: ++s.applied; break;
      case scaler::ResizeOutcome::kFailed: ++s.failed; break;
      case scaler::ResizeOutcome::kRejected: ++s.rejected; break;
      case scaler::ResizeOutcome::kAbandoned: ++s.abandoned; break;
      case scaler::ResizeOutcome::kNone: break;
    }
    if (record->resize_attempt > s.max_attempt) {
      s.max_attempt = record->resize_attempt;
    }
  }
  return s;
}

/// A closed-loop Diagonal run of `config` (SimConfig::Run() drives Auto),
/// with the scaler kept alive for its audit log.
struct DiagonalRun {
  sim::RunResult result;
  std::unique_ptr<scaler::DiagonalScaler> scaler;
};

Result<DiagonalRun> RunDiagonal(const SimConfig& config) {
  DBSCALE_ASSIGN_OR_RETURN(
      auto policy,
      scaler::DiagonalScaler::Create(config.simulation.catalog, config.knobs));
  DBSCALE_ASSIGN_OR_RETURN(
      sim::RunResult result,
      sim::Simulation(config.EffectiveSimulationOptions()).Run(policy.get()));
  return DiagonalRun{std::move(result), std::move(policy)};
}

}  // namespace

int main() {
  // 1. Null fault plan: the baseline.
  auto null_outcome = BaseConfig().Run();
  if (!null_outcome.ok()) {
    std::fprintf(stderr, "null run failed: %s\n",
                 null_outcome.status().ToString().c_str());
    return 1;
  }

  // 2. The acceptance fault profile: faults are drawn from a seeded stream
  // forked off the simulation RNG, so the faulty run is exactly as
  // reproducible as the clean one.
  SimConfig faulty_config = BaseConfig();
  faulty_config.simulation.fault.resize.failure_probability = 0.1;
  faulty_config.simulation.fault.resize.min_latency_intervals = 1;
  faulty_config.simulation.fault.resize.max_latency_intervals = 2;
  faulty_config.simulation.fault.telemetry.drop_probability = 0.05;
  auto faulty_outcome = faulty_config.Run();
  if (!faulty_outcome.ok()) {
    std::fprintf(stderr, "faulty run failed: %s\n",
                 faulty_outcome.status().ToString().c_str());
    return 1;
  }

  // 3. The acceptance profile under the Diagonal policy on the flexible
  // per-dimension catalog, twice: it retries through the same guardrails.
  container::FlexibleCatalogOptions flexible_options;
  flexible_options.subdivisions = 1;
  auto flexible = container::Catalog::MakeFlexible(flexible_options);
  if (!flexible.ok()) {
    std::fprintf(stderr, "flexible catalog: %s\n",
                 flexible.status().ToString().c_str());
    return 1;
  }
  SimConfig diagonal_config = faulty_config;
  diagonal_config.simulation.catalog = *flexible;
  auto diagonal_a = RunDiagonal(diagonal_config);
  auto diagonal_b = RunDiagonal(diagonal_config);
  if (!diagonal_a.ok() || !diagonal_b.ok()) {
    std::fprintf(stderr, "diagonal run failed: %s\n",
                 diagonal_a.status().ToString().c_str());
    return 1;
  }

  const sim::RunResult& null_run = null_outcome->result;
  const sim::RunResult& faulty_run = faulty_outcome->result;
  const sim::RunResult& diagonal_run = diagonal_a->result;
  const AuditSummary audit = SummarizeAudit(faulty_outcome->scaler->audit());
  const AuditSummary diagonal_audit =
      SummarizeAudit(diagonal_a->scaler->audit());

  std::printf("trace: %zu intervals, p95 goal 900 ms\n\n",
              null_run.intervals.size());
  sim::TextTable table({"run", "p95 ms", "cost", "changes", "requests",
                        "failures", "degraded", "reversals"});
  const sim::RunResult* runs[] = {&null_run, &faulty_run};
  const char* names[] = {"null plan", "faulty (10%/1-2iv)"};
  for (int i = 0; i < 2; ++i) {
    const sim::RunResult& r = *runs[i];
    table.AddRow({names[i], StrFormat("%.0f", r.latency_p95_ms),
                  StrFormat("%.0f", r.total_cost),
                  StrFormat("%d", r.container_changes),
                  StrFormat("%llu", (unsigned long long)r.resize_attempts),
                  StrFormat("%llu", (unsigned long long)r.resize_failures),
                  StrFormat("%llu", (unsigned long long)r.degraded_windows),
                  StrFormat("%d", DirectionReversals(r))});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("faulty-run audit: %d requested, %d applied, %d failed, "
              "%d rejected, %d abandoned; deepest retry attempt %d\n\n",
              audit.requested, audit.applied, audit.failed, audit.rejected,
              audit.abandoned, audit.max_attempt);
  std::printf("diagonal faulty-run audit (flexible catalog): %llu failures "
              "of %llu requests; %d failed, %d abandoned; deepest retry "
              "attempt %d\n\n",
              (unsigned long long)diagonal_run.resize_failures,
              (unsigned long long)diagonal_run.resize_attempts,
              diagonal_audit.failed, diagonal_audit.abandoned,
              diagonal_audit.max_attempt);
  std::printf("resize trail (faulty run, first 12 records):\n");
  int shown = 0;
  for (const auto* record : faulty_outcome->scaler->audit().Resizes()) {
    if (++shown > 12) break;
    std::printf("%s\n", record->ToString().substr(0, 100).c_str());
  }

  // The resilience contract.
  const size_t intervals = null_run.intervals.size();
  const int reversals = DirectionReversals(faulty_run);
  examples::Contracts contracts;
  std::printf("\n");
  contracts.Check(10 * static_cast<size_t>(reversals) <= intervals,
                  StrFormat("the faulty loop converges: %d reversals over "
                            "%zu intervals, at most 1 per 10",
                            reversals, intervals));
  contracts.Check(audit.failed + audit.abandoned > 0 && audit.max_attempt >= 2,
                  "the faulty run's audit log shows failed records and a "
                  "retry (attempt >= 2)");
  contracts.Check(
      diagonal_run.Digest() == diagonal_b->result.Digest(),
      StrFormat("diagonal faulty run is run-twice bit-identical "
                "(digest %016llx)",
                (unsigned long long)diagonal_run.Digest()));
  contracts.Check(diagonal_audit.failed > 0 && diagonal_audit.max_attempt >= 2,
                  "the diagonal run's audit log shows failed records and a "
                  "retry (attempt >= 2)");

  std::printf("\nFaults delay and fail resizes, but the loop converges: the\n"
              "retry/backoff path lands the container on the demand rung\n"
              "without oscillation, and every outcome is in the audit log.\n");
  return contracts.ExitCode();
}
