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
// With --json=PATH the example also writes a machine-readable summary used
// by ci/check.sh stage 8 (fault-matrix smoke): run-twice digests prove
// determinism, the faulty run's reversal count proves convergence, and
// both policies' audit logs show the retry trail.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

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

/// Order-sensitive digest over the interval series; any behavioral change
/// (billing, latency, resize placement) moves it.
double RunDigest(const sim::RunResult& run) {
  double sum = 0.0;
  for (const auto& interval : run.intervals) {
    sum += interval.cost + interval.latency_p95_ms +
           static_cast<double>(interval.completed) +
           1000.0 * interval.container.base_rung + (interval.resized ? 7 : 0);
    for (double u : interval.utilization_pct) sum += u;
  }
  return sum;
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

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  // 1. Null fault plan, run twice: the baseline, and proof it is
  // deterministic (bit-identical digests).
  SimConfig null_config = BaseConfig();
  auto null_a = null_config.Run();
  auto null_b = null_config.Run();
  if (!null_a.ok() || !null_b.ok()) {
    std::fprintf(stderr, "null run failed: %s\n",
                 null_a.status().ToString().c_str());
    return 1;
  }

  // 2. The acceptance fault profile, also run twice: faults are drawn from
  // a seeded stream forked off the simulation RNG, so the faulty run is
  // exactly as reproducible as the clean one.
  SimConfig faulty_config = BaseConfig();
  faulty_config.simulation.fault.resize.failure_probability = 0.1;
  faulty_config.simulation.fault.resize.min_latency_intervals = 1;
  faulty_config.simulation.fault.resize.max_latency_intervals = 2;
  faulty_config.simulation.fault.telemetry.drop_probability = 0.05;
  auto faulty_a = faulty_config.Run();
  auto faulty_b = faulty_config.Run();
  if (!faulty_a.ok() || !faulty_b.ok()) {
    std::fprintf(stderr, "faulty run failed: %s\n",
                 faulty_a.status().ToString().c_str());
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

  const sim::RunResult& null_run = null_a->result;
  const sim::RunResult& faulty_run = faulty_a->result;
  const sim::RunResult& diagonal_run = diagonal_a->result;
  const AuditSummary audit = SummarizeAudit(faulty_a->scaler->audit());
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
  for (const auto* record : faulty_a->scaler->audit().Resizes()) {
    if (++shown > 12) break;
    std::printf("%s\n", record->ToString().substr(0, 100).c_str());
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"intervals\": %zu,\n"
        "  \"null\": {\"digest\": %.10f, \"digest_repeat\": %.10f,\n"
        "    \"changes\": %d, \"resize_attempts\": %llu,\n"
        "    \"resize_failures\": %llu, \"degraded_windows\": %llu,\n"
        "    \"reversals\": %d},\n"
        "  \"faulty\": {\"digest\": %.10f, \"digest_repeat\": %.10f,\n"
        "    \"changes\": %d, \"resize_attempts\": %llu,\n"
        "    \"resize_failures\": %llu, \"resize_rejections\": %llu,\n"
        "    \"dropped_samples\": %llu, \"degraded_windows\": %llu,\n"
        "    \"reversals\": %d,\n"
        "    \"audit\": {\"requested\": %d, \"applied\": %d, \"failed\": %d,\n"
        "      \"rejected\": %d, \"abandoned\": %d, \"max_attempt\": %d}},\n"
        "  \"diagonal\": {\"digest\": %.10f, \"digest_repeat\": %.10f,\n"
        "    \"changes\": %d, \"resize_attempts\": %llu,\n"
        "    \"resize_failures\": %llu,\n"
        "    \"audit\": {\"failed\": %d, \"abandoned\": %d,\n"
        "      \"max_attempt\": %d}}\n"
        "}\n",
        null_run.intervals.size(), RunDigest(null_run),
        RunDigest(null_b->result), null_run.container_changes,
        (unsigned long long)null_run.resize_attempts,
        (unsigned long long)null_run.resize_failures,
        (unsigned long long)null_run.degraded_windows,
        DirectionReversals(null_run), RunDigest(faulty_run),
        RunDigest(faulty_b->result), faulty_run.container_changes,
        (unsigned long long)faulty_run.resize_attempts,
        (unsigned long long)faulty_run.resize_failures,
        (unsigned long long)faulty_run.resize_rejections,
        (unsigned long long)faulty_run.telemetry_dropped_samples,
        (unsigned long long)faulty_run.degraded_windows,
        DirectionReversals(faulty_run), audit.requested, audit.applied,
        audit.failed, audit.rejected, audit.abandoned, audit.max_attempt,
        RunDigest(diagonal_run), RunDigest(diagonal_b->result),
        diagonal_run.container_changes,
        (unsigned long long)diagonal_run.resize_attempts,
        (unsigned long long)diagonal_run.resize_failures,
        diagonal_audit.failed, diagonal_audit.abandoned,
        diagonal_audit.max_attempt);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf("\nFaults delay and fail resizes, but the loop converges: the\n"
              "retry/backoff path lands the container on the demand rung\n"
              "without oscillation, and every outcome is in the audit log.\n");
  return 0;
}
