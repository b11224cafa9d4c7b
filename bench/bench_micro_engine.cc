// google-benchmark micro benchmarks for the simulation substrate: event
// throughput bounds how much simulated time a reproduction run can cover.

#include <benchmark/benchmark.h>

#include "src/container/catalog.h"
#include "src/engine/engine.h"
#include "src/scaler/autoscaler.h"
#include "src/scaler/categories.h"
#include "src/telemetry/manager.h"
#include "src/workload/generator.h"
#include "src/workload/mix.h"

namespace dbscale {
namespace {

/// Counts the record events addressed to it.
class CountingHandler : public engine::EventHandler {
 public:
  void OnEvent(const engine::Event& /*event*/) override { ++fired; }
  int fired = 0;
};

// Record events on one warm queue: push 10^4 plain records at increasing
// times, then pop and dispatch them all.
void BM_EventQueueThroughput(benchmark::State& state) {
  engine::EventQueue events;
  CountingHandler counter;
  const uint16_t target = events.AddHandler(&counter);
  for (auto _ : state) {
    const SimTime start = events.Now();
    for (int i = 0; i < 10000; ++i) {
      events.Schedule(start + Duration::Micros(i), target, /*kind=*/0,
                      static_cast<uint32_t>(i));
    }
    events.RunAll();
    benchmark::DoNotOptimize(counter.fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_EngineRequestThroughput(benchmark::State& state) {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  workload::WorkloadSpec spec = workload::MakeCpuioWorkload();
  for (auto _ : state) {
    engine::EventQueue events;
    engine::DatabaseEngine engine(&events, spec.MakeEngineOptions(),
                                  catalog.rung(6), Rng(1));
    engine.PrewarmBufferPool();
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
      engine.Submit(spec.Sample(&rng));
    }
    events.RunAll();
    benchmark::DoNotOptimize(engine.requests_completed());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EngineRequestThroughput);

void BM_TelemetryManagerCompute(benchmark::State& state) {
  telemetry::TelemetryStore store;
  container::Catalog catalog = container::Catalog::MakeLockStep();
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    telemetry::TelemetrySample sample;
    sample.period_start = SimTime::Zero() + Duration::Seconds(i * 5);
    sample.period_end = SimTime::Zero() + Duration::Seconds((i + 1) * 5);
    sample.requests_completed = 100;
    sample.latency_p95_ms = rng.LogNormal(5.0, 0.3);
    for (int r = 0; r < container::kNumResources; ++r) {
      sample.utilization_pct[static_cast<size_t>(r)] =
          rng.Uniform(0, 100);
    }
    for (int w = 0; w < telemetry::kNumWaitClasses; ++w) {
      sample.wait_ms[static_cast<size_t>(w)] = rng.LogNormal(4.0, 1.0);
    }
    sample.allocation = catalog.rung(4).resources;
    store.Append(sample);
  }
  telemetry::TelemetryManager manager;
  SimTime now = SimTime::Zero() + Duration::Seconds(64 * 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.Compute(store, now));
  }
}
BENCHMARK(BM_TelemetryManagerCompute);

void BM_AutoScalerDecide(benchmark::State& state) {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 200.0};
  auto scaler = scaler::AutoScaler::Create(catalog, knobs).value();
  scaler::PolicyInput input;
  input.signals.valid = true;
  input.signals.latency_ms = 150.0;
  input.current = catalog.rung(4);
  for (auto _ : state) {
    input.interval_index++;
    benchmark::DoNotOptimize(scaler->Decide(input));
  }
}
BENCHMARK(BM_AutoScalerDecide);

void BM_BufferPoolAccess(benchmark::State& state) {
  Rng rng(4);
  engine::BufferPool pool(100000, 50000, 1000000, &rng);
  pool.PrewarmHotSet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Access(true));
  }
}
BENCHMARK(BM_BufferPoolAccess);

void BM_WorkloadSample(benchmark::State& state) {
  workload::WorkloadSpec spec = workload::MakeTpccWorkload();
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.Sample(&rng));
  }
}
BENCHMARK(BM_WorkloadSample);

}  // namespace
}  // namespace dbscale

BENCHMARK_MAIN();
