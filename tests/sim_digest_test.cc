// Bit-exact pins of the closed-loop simulation: RunResult::Digest() over
// short runs that together reach every path of the discrete-event engine —
// lock-wait timeouts and think time, memory-grant queueing, buffer-pool
// pressure, latch and system delays, log writes, closed-loop sessions, and
// a resize and a balloon memory limit applied while requests are in flight.
// Each pinned run also asserts that it reaches the paths it is here for, so
// a config drift that stops exercising one fails loudly instead of pinning
// less.

#include <gtest/gtest.h>

#include <utility>

#include "src/scaler/policy.h"
#include "src/sim/sim_config.h"
#include "src/sim/simulation.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"

namespace dbscale::sim {
namespace {

using telemetry::WaitClass;

/// Sums one wait class over a run's intervals.
double WaitMs(const RunResult& run, WaitClass wc) {
  double total = 0.0;
  for (const IntervalRecord& r : run.intervals) {
    total += r.wait_ms[static_cast<size_t>(wc)];
  }
  return total;
}

SimConfig AutoConfig(workload::WorkloadSpec spec, workload::Trace trace,
                     double goal_ms) {
  SimConfig config;
  config.simulation.catalog = container::Catalog::MakeLockStep();
  config.simulation.workload = std::move(spec);
  config.simulation.trace = std::move(trace);
  config.simulation.interval_duration = Duration::Seconds(20);
  config.simulation.seed = 17;
  config.simulation.initial_rung = 3;
  config.knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, goal_ms};
  return config;
}

// The host and diagonal suites' null-plan config.
SimConfig NullCpuioConfig() {
  return AutoConfig(workload::MakeCpuioWorkload(),
                    *workload::MakeTrace2LongBurst().Subsampled(4), 900.0);
}

RunResult RunConfig(const SimConfig& config) {
  auto run = config.Run();
  EXPECT_TRUE(run.ok()) << run.status().message();
  return run.ok() ? run->result : RunResult{};
}

/// Scripted policy: walks the container through a shrink and a grow, then
/// balloons memory far below the working set and lifts the limit again,
/// each while the open-loop arrivals keep requests in flight.
class ResizeBalloonPolicy : public scaler::ScalingPolicy {
 public:
  explicit ResizeBalloonPolicy(const container::Catalog& catalog)
      : catalog_(catalog) {}

  std::string name() const override { return "ResizeBalloon"; }

  scaler::ScalingDecision Decide(const scaler::PolicyInput& input) override {
    scaler::ScalingDecision d;
    d.target = input.current;
    d.explanation =
        scaler::Explanation(scaler::ExplanationCode::kNote, "hold");
    switch (input.interval_index % 8) {
      case 1:
        d.target = catalog_.rung(1);
        d.explanation =
            scaler::Explanation(scaler::ExplanationCode::kNote, "shrink");
        break;
      case 3:
        d.target = catalog_.rung(5);
        d.explanation =
            scaler::Explanation(scaler::ExplanationCode::kNote, "grow");
        break;
      case 4:
        d.memory_limit_mb = 600.0;
        d.explanation =
            scaler::Explanation(scaler::ExplanationCode::kNote, "balloon");
        break;
      case 6:
        d.memory_limit_mb = input.current.resources.memory_mb;
        d.explanation =
            scaler::Explanation(scaler::ExplanationCode::kNote, "restore");
        break;
      default:
        break;
    }
    return d;
  }

 private:
  const container::Catalog& catalog_;
};

TEST(SimDigestTest, NullCpuioRunPinned) {
  const RunResult run = RunConfig(NullCpuioConfig());
  EXPECT_EQ(run.Digest(), 0x2b4227551f4cf98eULL);
  EXPECT_EQ(run.events_processed, 1776344u);
  EXPECT_GT(WaitMs(run, WaitClass::kLatch), 0.0);
  EXPECT_GT(WaitMs(run, WaitClass::kSystem), 0.0);
  EXPECT_GT(WaitMs(run, WaitClass::kLogIo), 0.0);
  // A null fault plan fails no resize, degrades no window and applies
  // every request at once.
  EXPECT_EQ(run.resize_failures, 0u);
  EXPECT_EQ(run.degraded_windows, 0u);
  EXPECT_GT(run.container_changes, 0);
  EXPECT_EQ(run.resize_attempts, static_cast<uint64_t>(run.container_changes));
}

TEST(SimDigestTest, FaultyCpuioRunPinned) {
  SimConfig config = NullCpuioConfig();
  config.simulation.fault.resize.failure_probability = 0.1;
  config.simulation.fault.resize.min_latency_intervals = 1;
  config.simulation.fault.resize.max_latency_intervals = 2;
  config.simulation.fault.telemetry.drop_probability = 0.05;
  const RunResult run = RunConfig(config);
  EXPECT_EQ(run.Digest(), 0x07d25cbb19ae1fd3ULL);
  EXPECT_EQ(run.events_processed, 1771045u);
  EXPECT_GT(run.resize_failures, 0u);
  // The loop still scales, with at least one request per applied change.
  EXPECT_GT(run.container_changes, 0);
  EXPECT_GE(run.resize_attempts, static_cast<uint64_t>(run.container_changes));
}

// Lock-bound TPC-C with a short lock timeout: hot-row waits, think time
// held under the lock, and timeouts that abort queued transactions.
TEST(SimDigestTest, TpccLockBoundRunPinned) {
  SimConfig config =
      AutoConfig(workload::MakeTpccWorkload(),
                 *workload::MakeTrace4ManyBursts().Subsampled(8), 300.0);
  engine::EngineOptions engine =
      config.simulation.workload.MakeEngineOptions();
  engine.lock_timeout = Duration::Millis(400);
  config.simulation.engine = engine;
  const RunResult run = RunConfig(config);
  EXPECT_EQ(run.Digest(), 0x34688e31ee786744ULL);
  EXPECT_EQ(run.events_processed, 818222u);
  EXPECT_GT(run.total_errors, 0u);  // lock-wait timeouts
  EXPECT_GT(WaitMs(run, WaitClass::kLock), 0.0);
}

// DS2's large grants and working set: memory-grant queueing and
// buffer-pool pressure.
TEST(SimDigestTest, Ds2RunPinned) {
  const RunResult run = RunConfig(AutoConfig(
      workload::MakeDs2Workload(),
      *workload::MakeTrace1Steady().Subsampled(8)->Prefix(60), 900.0));
  EXPECT_EQ(run.Digest(), 0x3e79732985d07008ULL);
  EXPECT_EQ(run.events_processed, 1094118u);
  EXPECT_GT(WaitMs(run, WaitClass::kMemory), 0.0);
  EXPECT_GT(WaitMs(run, WaitClass::kBufferPool), 0.0);
}

TEST(SimDigestTest, ClosedLoopRunPinned) {
  SimConfig config = NullCpuioConfig();
  config.simulation.trace =
      *workload::MakeTrace2LongBurst().Subsampled(8)->Prefix(60);
  config.simulation.arrival_mode = workload::ArrivalMode::kClosedLoop;
  const RunResult run = RunConfig(config);
  EXPECT_EQ(run.Digest(), 0x38ff27935087eac5ULL);
  EXPECT_EQ(run.events_processed, 514504u);
  EXPECT_GT(run.total_completed, 0u);
}

TEST(SimDigestTest, ResizeAndBalloonInFlightRunPinned) {
  SimulationOptions options;
  options.workload = workload::MakeDs2Workload();
  options.trace = *workload::MakeTrace1Steady().Subsampled(16);
  options.keep_samples = true;
  options.seed = 23;
  ResizeBalloonPolicy policy(options.catalog);
  auto run = Simulation(options).Run(&policy);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->Digest(), 0xe5098b4477e43229ULL);
  EXPECT_EQ(run->events_processed, 306087u);
  EXPECT_GT(run->container_changes, 0);
  EXPECT_GT(WaitMs(*run, WaitClass::kBufferPool), 0.0);
}

// The digest reads every field: flipping any one of a few representative
// ones (an interval's cost, its explanation text, a sample, a run-level
// counter) or swapping two intervals' costs changes it.
TEST(SimDigestTest, DigestSeesEveryKindOfField) {
  RunResult base;
  base.policy_name = "P";
  base.intervals.resize(2);
  base.intervals[0].cost = 1.0;
  base.intervals[1].cost = 2.0;
  base.samples.resize(1);
  const uint64_t digest = base.Digest();
  EXPECT_EQ(digest, base.Digest());

  RunResult changed = base;
  std::swap(changed.intervals[0].cost, changed.intervals[1].cost);
  EXPECT_NE(changed.Digest(), digest);
  changed = base;
  changed.intervals[1].decision_explanation = "x";
  EXPECT_NE(changed.Digest(), digest);
  changed = base;
  changed.samples[0].physical_reads = 1;
  EXPECT_NE(changed.Digest(), digest);
  changed = base;
  changed.events_processed = 1;
  EXPECT_NE(changed.Digest(), digest);
  changed = base;
  changed.host_digest = 1;
  EXPECT_NE(changed.Digest(), digest);
}

}  // namespace
}  // namespace dbscale::sim
