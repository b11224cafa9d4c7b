#include "src/sim/experiment.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "src/baselines/offline_profiler.h"
#include "src/baselines/static_policy.h"
#include "src/baselines/trace_policy.h"
#include "src/baselines/util_policy.h"
#include "src/common/string_util.h"
#include "src/scaler/diagonal.h"
#include "src/common/thread_pool.h"

namespace dbscale::sim {

namespace {

bool WantTechnique(const ComparisonOptions& options,
                   const std::string& name) {
  if (options.techniques.empty()) return true;
  return std::find(options.techniques.begin(), options.techniques.end(),
                   name) != options.techniques.end();
}

}  // namespace

const std::vector<std::string>& RegisteredPolicyNames() {
  static const std::vector<std::string> kNames = {"Auto", "Util", "Diagonal"};
  return kNames;
}

Result<std::unique_ptr<scaler::ScalingPolicy>> MakeRegisteredPolicy(
    const std::string& name, const container::Catalog& catalog,
    const scaler::TenantKnobs& knobs) {
  if (name == "Auto") {
    DBSCALE_ASSIGN_OR_RETURN(auto policy,
                             scaler::AutoScaler::Create(catalog, knobs));
    return std::unique_ptr<scaler::ScalingPolicy>(std::move(policy));
  }
  if (name == "Util") {
    if (!knobs.latency_goal.has_value()) {
      return Status::InvalidArgument("Util requires a latency goal");
    }
    return std::unique_ptr<scaler::ScalingPolicy>(
        std::make_unique<baselines::UtilPolicy>(catalog,
                                                *knobs.latency_goal));
  }
  if (name == "Diagonal") {
    DBSCALE_ASSIGN_OR_RETURN(auto policy,
                             scaler::DiagonalScaler::Create(catalog, knobs));
    return std::unique_ptr<scaler::ScalingPolicy>(std::move(policy));
  }
  return Status::InvalidArgument("unknown policy name: " + name);
}

const TechniqueResult* ComparisonResult::Find(const std::string& name) const {
  for (const TechniqueResult& t : techniques) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::string ComparisonResult::ToTable() const {
  std::string header = StrFormat("%-10s", "");
  std::string latency_row = StrFormat("%-10s", "Latency");
  std::string cost_row = StrFormat("%-10s", "Cost");
  std::string changes_row = StrFormat("%-10s", "Changes%");
  for (const TechniqueResult& t : techniques) {
    header += StrFormat("%10s", t.name.c_str());
    latency_row += StrFormat(
        "%10.0f", t.run.LatencyMs(goal.aggregate));
    cost_row += StrFormat("%10.1f", t.run.avg_cost_per_interval);
    changes_row += StrFormat("%10.1f", 100.0 * t.run.change_fraction);
  }
  return StrFormat(
      "goal: %s <= %.0f ms\n%s\n%s\n%s\n%s\n",
      telemetry::LatencyAggregateToString(goal.aggregate), goal.target_ms,
      header.c_str(), latency_row.c_str(), cost_row.c_str(),
      changes_row.c_str());
}

Result<RunResult> RunWithPolicy(const SimulationOptions& base,
                                scaler::ScalingPolicy* policy,
                                int initial_rung) {
  SimulationOptions options = base;
  options.initial_rung = initial_rung;
  Simulation simulation(std::move(options));
  return simulation.Run(policy);
}

Result<RunResult> RunMax(const SimulationOptions& base) {
  baselines::StaticPolicy max_policy("Max", base.catalog.largest());
  return RunWithPolicy(base, &max_policy,
                       base.catalog.num_rungs() - 1);
}

Result<ComparisonResult> RunComparison(const SimulationOptions& base_in,
                                       const ComparisonOptions& options) {
  ComparisonResult result;

  // This harness fans techniques out across threads, and the Observability
  // bundle is single-threaded by contract (SimulationOptions::obs): every
  // per-technique copy runs unobserved.
  SimulationOptions base = base_in;
  base.obs = nullptr;

  // 1. Gold standard (always needed: it defines the goal and profiles the
  // offline baselines).
  DBSCALE_ASSIGN_OR_RETURN(RunResult max_run, RunMax(base));

  result.goal.aggregate = options.goal_aggregate;
  result.goal.target_ms =
      options.goal_factor * max_run.LatencyMs(options.goal_aggregate);
  if (result.goal.target_ms <= 0.0) {
    return Status::Internal("Max run produced no latency measurements");
  }

  // Online policies must observe the latency aggregate the goal is
  // expressed over.
  SimulationOptions online_base = base;
  online_base.telemetry.latency_aggregate = options.goal_aggregate;

  baselines::OfflineProfiler profiler(base.catalog, max_run.UsageSeries());

  // The remaining techniques are independent given the Max profiling run:
  // each simulates the same seeded workload under its own policy. Their
  // (cheap) profiler-derived configurations are resolved serially here so
  // any profiling error surfaces deterministically; the (expensive)
  // simulations then fan out across threads. Results are assembled in
  // canonical technique order, so the output is identical at any thread
  // count.
  struct TechniqueJob {
    const char* name;
    std::function<Result<RunResult>()> run;
  };
  std::vector<TechniqueJob> jobs;
  const scaler::LatencyGoal goal = result.goal;

  if (WantTechnique(options, "Peak")) {
    DBSCALE_ASSIGN_OR_RETURN(container::ContainerSpec peak,
                             profiler.PeakContainer());
    jobs.push_back({"Peak", [&base, peak]() -> Result<RunResult> {
                      baselines::StaticPolicy policy("Peak", peak);
                      return RunWithPolicy(base, &policy, peak.base_rung);
                    }});
  }

  if (WantTechnique(options, "Avg")) {
    DBSCALE_ASSIGN_OR_RETURN(container::ContainerSpec avg,
                             profiler.AvgContainer());
    jobs.push_back({"Avg", [&base, avg]() -> Result<RunResult> {
                      baselines::StaticPolicy policy("Avg", avg);
                      return RunWithPolicy(base, &policy, avg.base_rung);
                    }});
  }

  if (WantTechnique(options, "Trace")) {
    DBSCALE_ASSIGN_OR_RETURN(auto schedule, profiler.TraceSchedule());
    jobs.push_back(
        {"Trace",
         [&base, schedule = std::move(schedule)]() -> Result<RunResult> {
           const int initial_rung =
               schedule.empty() ? 0 : schedule.front().base_rung;
           baselines::TracePolicy policy(schedule);
           return RunWithPolicy(base, &policy, initial_rung);
         }});
  }

  if (WantTechnique(options, "Util")) {
    jobs.push_back(
        {"Util", [&online_base, &options, goal]() -> Result<RunResult> {
           baselines::UtilPolicy policy(online_base.catalog, goal);
           return RunWithPolicy(online_base, &policy,
                                options.online_initial_rung);
         }});
  }

  if (WantTechnique(options, "Auto")) {
    jobs.push_back(
        {"Auto", [&online_base, &options, goal]() -> Result<RunResult> {
           scaler::TenantKnobs knobs;
           knobs.latency_goal = goal;
           knobs.sensitivity = options.sensitivity;
           DBSCALE_ASSIGN_OR_RETURN(
               auto auto_scaler,
               scaler::AutoScaler::Create(online_base.catalog, knobs));
           return RunWithPolicy(online_base, auto_scaler.get(),
                                options.online_initial_rung);
         }});
  }

  std::vector<std::optional<Result<RunResult>>> outcomes(jobs.size());
  auto run_job = [&](int64_t i) {
    outcomes[static_cast<size_t>(i)] =
        jobs[static_cast<size_t>(i)].run();
  };
  if (options.num_threads == 0) {
    ThreadPool::Global().ParallelFor(
        0, static_cast<int64_t>(jobs.size()), run_job);
  } else {
    ThreadPool pool(options.num_threads);
    pool.ParallelFor(0, static_cast<int64_t>(jobs.size()), run_job);
  }

  if (WantTechnique(options, "Max")) {
    result.techniques.push_back({"Max", std::move(max_run)});
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    Result<RunResult>& outcome = *outcomes[i];
    if (!outcome.ok()) return outcome.status();
    result.techniques.push_back(
        {jobs[i].name, std::move(outcome).value()});
  }

  return result;
}

}  // namespace dbscale::sim
