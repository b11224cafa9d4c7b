// Observability layer: registry/shard semantics, trace capture, exporter
// round-trips, and end-to-end determinism of the instrumented closed loop.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/engine_metrics.h"
#include "src/fleet/fleet_sim.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/pipeline.h"
#include "src/obs/trace.h"
#include "src/scaler/autoscaler.h"
#include "src/scaler/explanation.h"
#include "src/sim/simulation.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"
#include "tests/fleet_telemetry_digest.h"

namespace dbscale::obs {
namespace {

TEST(MetricRegistryTest, RegistrationIsIdempotentByName) {
  MetricRegistry registry;
  const MetricId a = registry.Counter("dbscale_x_total", "x");
  const MetricId b = registry.Counter("dbscale_x_total", "x again");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.num_instruments(), 1u);
  const MetricId g = registry.Gauge("dbscale_g", "g");
  EXPECT_NE(g, a);
  EXPECT_EQ(registry.num_instruments(), 2u);
}

TEST(MetricShardTest, RecordsCountersGaugesHistograms) {
  MetricRegistry registry;
  const MetricId c = registry.Counter("c_total", "c");
  const MetricId g = registry.Gauge("g", "g");
  const MetricId h = registry.Histogram(
      "h_ms", "h", HistogramSpec::Linear(10.0, 10.0, 3));  // 10,20,30
  MetricShard shard;
  shard.Attach(&registry);

  shard.Add(c, 2.0);
  shard.Add(c, 3.0);
  EXPECT_DOUBLE_EQ(shard.counter(c), 5.0);

  EXPECT_TRUE(std::isnan(shard.gauge(g)));  // unset sentinel
  shard.Set(g, 7.0);
  shard.Set(g, 9.0);
  EXPECT_DOUBLE_EQ(shard.gauge(g), 9.0);

  shard.Observe(h, 5.0);    // bucket 0 (le 10)
  shard.Observe(h, 25.0);   // bucket 2 (le 30)
  shard.Observe(h, 100.0);  // overflow
  EXPECT_DOUBLE_EQ(shard.hist_bucket(h, 0), 1.0);
  EXPECT_DOUBLE_EQ(shard.hist_bucket(h, 1), 0.0);
  EXPECT_DOUBLE_EQ(shard.hist_bucket(h, 2), 1.0);
  EXPECT_DOUBLE_EQ(shard.hist_overflow(h), 1.0);
  EXPECT_DOUBLE_EQ(shard.hist_sum(h), 130.0);
  EXPECT_DOUBLE_EQ(shard.hist_count(h), 3.0);
}

TEST(MetricShardTest, MergeAddsCountersAndOverwritesSetGauges) {
  MetricRegistry registry;
  const MetricId c = registry.Counter("c_total", "c");
  const MetricId g = registry.Gauge("g", "g");
  MetricShard a, b;
  a.Attach(&registry);
  b.Attach(&registry);

  a.Add(c, 1.0);
  a.Set(g, 5.0);
  b.Add(c, 2.0);
  a.MergeFrom(b);  // b never Set g: a's gauge survives
  EXPECT_DOUBLE_EQ(a.counter(c), 3.0);
  EXPECT_DOUBLE_EQ(a.gauge(g), 5.0);

  b.Set(g, 11.0);
  a.MergeFrom(b);  // now b's gauge wins (merge order defines outcome)
  EXPECT_DOUBLE_EQ(a.counter(c), 5.0);
  EXPECT_DOUBLE_EQ(a.gauge(g), 11.0);
}

TEST(MetricShardTest, LateRegistrationReattachPreservesValues) {
  MetricRegistry registry;
  const MetricId c1 = registry.Counter("c1_total", "c1");
  MetricShard shard;
  shard.Attach(&registry);
  shard.Add(c1, 4.0);

  const MetricId c2 = registry.Counter("c2_total", "c2");
  shard.Attach(&registry);  // re-size for the late registration
  EXPECT_DOUBLE_EQ(shard.counter(c1), 4.0);
  shard.Add(c2, 1.0);
  EXPECT_DOUBLE_EQ(shard.counter(c2), 1.0);
}

TEST(TraceRecorderTest, BuildsOneTreePerInterval) {
  TraceRecorder recorder;
  recorder.BeginInterval(0, SimTime::Zero());
  const SpanId root = recorder.root();
  ASSERT_EQ(root, 0u);
  const SpanId child = recorder.StartSpan(
      "decide", SimTime::Zero() + Duration::Seconds(1), root);
  recorder.AddAttr(child, "target_rung", 4.0);
  recorder.AddAttrStr(child, "code", "scale_up_demand");
  recorder.EndSpan(child, SimTime::Zero() + Duration::Seconds(2));
  recorder.EndInterval(SimTime::Zero() + Duration::Seconds(20));

  ASSERT_EQ(recorder.num_intervals(), 1u);
  const IntervalTrace& tree = recorder.interval(0);
  ASSERT_EQ(tree.spans.size(), 2u);
  EXPECT_EQ(tree.spans[0].parent, kNoSpan);
  EXPECT_STREQ(tree.spans[0].name, "interval");
  EXPECT_EQ(tree.spans[1].parent, 0u);
  EXPECT_STREQ(tree.spans[1].name, "decide");
  ASSERT_EQ(tree.spans[1].num_attrs, 2u);
  EXPECT_DOUBLE_EQ(tree.spans[1].attrs[0].num, 4.0);
  EXPECT_STREQ(tree.spans[1].attrs[1].str, "scale_up_demand");
  EXPECT_EQ(recorder.root(), kNoSpan);  // sealed
}

TEST(TraceRecorderTest, OverflowDropsDeterministically) {
  TraceRecorder::Options options;
  options.max_intervals = 2;
  options.max_spans_per_interval = 3;
  TraceRecorder recorder(options);
  recorder.BeginInterval(0, SimTime::Zero());
  for (int i = 0; i < 5; ++i) {
    // Only the drop accounting matters here, not the ids.
    // dbscale-lint: allow(discarded-status)
    (void)recorder.StartSpan("s", SimTime::Zero(), recorder.root());
  }
  recorder.EndInterval(SimTime::Zero());
  EXPECT_EQ(recorder.interval(0).spans.size(), 3u);
  EXPECT_EQ(recorder.interval(0).dropped_spans, 3u);
  EXPECT_EQ(recorder.dropped_spans(), 3u);

  // The ring keeps only the most recent max_intervals trees.
  for (int i = 1; i <= 2; ++i) {
    recorder.BeginInterval(i, SimTime::Zero());
    recorder.EndInterval(SimTime::Zero());
  }
  ASSERT_EQ(recorder.num_intervals(), 2u);
  EXPECT_EQ(recorder.interval(0).interval_index, 1);
  EXPECT_EQ(recorder.interval(1).interval_index, 2);
}

// -- Exporters -----------------------------------------------------------

/// Pulls the raw text of `"key":<value>` out of one JSONL line.
std::string JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t end = at + needle.size();
  int depth = 0;
  bool in_string = false;
  for (; end < line.size(); ++end) {
    const char c = line[end];
    if (in_string) {
      if (c == '\\') ++end;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (depth == 0) break;
      --depth;
    } else if (c == ',' && depth == 0) {
      break;
    }
  }
  return line.substr(at + needle.size(), end - (at + needle.size()));
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST(ExportTest, JsonlSpansParseBackToTheRecordedTree) {
  TraceRecorder recorder;
  recorder.BeginInterval(7, SimTime::Zero());
  const SpanId child = recorder.StartSpan(
      "decide", SimTime::Zero() + Duration::Millis(1500), recorder.root());
  recorder.AddAttrStr(child, "code", "hold_demand_steady");
  recorder.AddAttr(child, "target_rung", 3.0);
  recorder.EndSpan(child, SimTime::Zero() + Duration::Millis(1750));
  recorder.EndInterval(SimTime::Zero() + Duration::Seconds(20));

  std::string out;
  AppendSpansJsonl(recorder, out);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_EQ(lines.size(), 2u);  // one line per span

  // Root line.
  EXPECT_EQ(JsonField(lines[0], "interval"), "7");
  EXPECT_EQ(JsonField(lines[0], "span"), "0");
  EXPECT_EQ(JsonField(lines[0], "parent"), "null");
  EXPECT_EQ(JsonField(lines[0], "name"), "\"interval\"");
  EXPECT_EQ(JsonField(lines[0], "start_us"), "0");
  EXPECT_EQ(JsonField(lines[0], "end_us"), "20000000");

  // Child line, attributes included.
  EXPECT_EQ(JsonField(lines[1], "span"), "1");
  EXPECT_EQ(JsonField(lines[1], "parent"), "0");
  EXPECT_EQ(JsonField(lines[1], "name"), "\"decide\"");
  EXPECT_EQ(JsonField(lines[1], "start_us"), "1500000");
  EXPECT_EQ(JsonField(lines[1], "end_us"), "1750000");
  const std::string attrs = JsonField(lines[1], "attrs");
  EXPECT_EQ(JsonField(attrs, "code"), "\"hold_demand_steady\"");
  EXPECT_EQ(JsonField(attrs, "target_rung"), "3");
}

TEST(ExportTest, PrometheusGolden) {
  MetricRegistry registry;
  const MetricId c = registry.Counter("dbscale_demo_total", "A counter.");
  const MetricId g = registry.Gauge("dbscale_demo_gauge", "A gauge.");
  const MetricId h = registry.Histogram(
      "dbscale_demo_ms", "A histogram.",
      HistogramSpec::Linear(10.0, 10.0, 2));
  MetricShard shard;
  shard.Attach(&registry);
  shard.Add(c, 3.0);
  shard.Set(g, 2.5);
  shard.Observe(h, 5.0);
  shard.Observe(h, 15.0);
  shard.Observe(h, 99.0);

  std::string out;
  AppendPrometheus(registry, shard, out);
  EXPECT_EQ(out,
            "# HELP dbscale_demo_total A counter.\n"
            "# TYPE dbscale_demo_total counter\n"
            "dbscale_demo_total 3\n"
            "# HELP dbscale_demo_gauge A gauge.\n"
            "# TYPE dbscale_demo_gauge gauge\n"
            "dbscale_demo_gauge 2.5\n"
            "# HELP dbscale_demo_ms A histogram.\n"
            "# TYPE dbscale_demo_ms histogram\n"
            "dbscale_demo_ms_bucket{le=\"10\"} 1\n"
            "dbscale_demo_ms_bucket{le=\"20\"} 2\n"
            "dbscale_demo_ms_bucket{le=\"+Inf\"} 3\n"
            "dbscale_demo_ms_sum 119\n"
            "dbscale_demo_ms_count 3\n");
}

TEST(ExportTest, PrometheusSharesOneHeaderPerLabeledFamily) {
  MetricRegistry registry;
  // Registration for the export side effect only; ids are unused.
  // dbscale-lint: allow(discarded-status)
  (void)registry.Counter("dbscale_jobs_total{queue=\"cpu\"}", "Jobs.");
  // dbscale-lint: allow(discarded-status)
  (void)registry.Counter("dbscale_jobs_total{queue=\"disk\"}", "Jobs.");
  MetricShard shard;
  shard.Attach(&registry);
  std::string out;
  AppendPrometheus(registry, shard, out);
  EXPECT_EQ(out,
            "# HELP dbscale_jobs_total Jobs.\n"
            "# TYPE dbscale_jobs_total counter\n"
            "dbscale_jobs_total{queue=\"cpu\"} 0\n"
            "dbscale_jobs_total{queue=\"disk\"} 0\n");
}

TEST(ExportTest, CsvExpandsHistogramsAndQuotesNames) {
  MetricRegistry registry;
  const MetricId c =
      registry.Counter("dbscale_x_total{label=\"a,b\"}", "x");
  const MetricId h = registry.Histogram(
      "dbscale_h_ms", "h", HistogramSpec::Linear(1.0, 1.0, 2));
  MetricShard shard;
  shard.Attach(&registry);
  shard.Add(c, 1.0);
  shard.Observe(h, 0.5);

  std::string out;
  AppendMetricsCsv(registry, shard, out);
  const std::vector<std::string> lines = SplitLines(out);
  // header + counter + 2 cumulative buckets + Inf + sum + count
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "metric,kind,le,value");
  // Label values with commas are RFC 4180-quoted (embedded quotes doubled).
  EXPECT_EQ(lines[1],
            "\"dbscale_x_total{label=\"\"a,b\"\"}\",counter,,1");
  EXPECT_EQ(lines[2], "dbscale_h_ms,histogram,1,1");
  EXPECT_EQ(lines[3], "dbscale_h_ms,histogram,2,1");
  EXPECT_EQ(lines[4], "dbscale_h_ms,histogram,+Inf,1");
  EXPECT_EQ(lines[5], "dbscale_h_ms,histogram,sum,0.5");
  EXPECT_EQ(lines[6], "dbscale_h_ms,histogram,count,1");
}

// -- End-to-end: the instrumented closed loop ----------------------------

sim::SimulationOptions SmallObservedOptions() {
  sim::SimulationOptions options;
  options.workload = workload::MakeCpuioWorkload();
  workload::Trace full = workload::MakeTrace2LongBurst();
  std::vector<double> rps(full.values().begin() + 400,
                          full.values().begin() + 440);
  options.trace = workload::Trace("trace2-slice", rps);
  options.interval_duration = Duration::Seconds(20);
  options.seed = 17;
  return options;
}

std::unique_ptr<scaler::AutoScaler> MakeAuto(
    const container::Catalog& catalog) {
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 200.0};
  return scaler::AutoScaler::Create(catalog, knobs).value();
}

TEST(ObservedSimulationTest, CapturesSpansAndPipelineMetrics) {
  Observability ob;
  sim::SimulationOptions options = SmallObservedOptions();
  options.obs = &ob;
  auto policy = MakeAuto(options.catalog);
  auto run = sim::Simulation(options).Run(policy.get());
  ASSERT_TRUE(run.ok());
  const size_t steps = options.trace.num_steps();

  // One span tree per billing interval, each led by the root.
  ASSERT_EQ(ob.trace().num_intervals(), steps);
  EXPECT_EQ(ob.trace().total_intervals(), steps);
  EXPECT_EQ(ob.trace().dropped_spans(), 0u);
  bool saw_compute = false, saw_decide = false;
  for (const Span& s : ob.trace().interval(0).spans) {
    if (std::string(s.name) == "telemetry.compute") saw_compute = true;
    if (std::string(s.name) == "decide") saw_decide = true;
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_decide);

  // Pipeline counters reconcile with the run result.
  const PipelineMetrics& pm = ob.pipeline();
  const MetricShard& shard = ob.primary();
  EXPECT_DOUBLE_EQ(shard.counter(pm.sim_intervals_total),
                   static_cast<double>(steps));
  EXPECT_DOUBLE_EQ(shard.counter(pm.sim_cost_total), run->total_cost);
  EXPECT_DOUBLE_EQ(shard.counter(pm.telemetry_computes_total),
                   static_cast<double>(steps));
  EXPECT_DOUBLE_EQ(
      shard.counter(pm.sim_resizes_total),
      static_cast<double>(run->container_changes));

  // Engine counters reconcile with engine-lifetime accounting.
  const engine::EngineMetrics em =
      engine::EngineMetrics::Register(&ob.registry());  // idempotent
  EXPECT_DOUBLE_EQ(shard.counter(em.requests_completed_total),
                   static_cast<double>(run->total_completed));
  EXPECT_GT(shard.counter(em.buffer_pool_hits_total), 0.0);
  EXPECT_GT(shard.counter(em.cpu_jobs_total), 0.0);

  // Every decision carries a non-default code, and the decision counters
  // sum to exactly one decision per interval.
  const MetricId decision_base =
      scaler::RegisterDecisionCounters(&ob.registry());  // idempotent
  double decisions = 0.0;
  for (size_t i = 0; i < scaler::kNumExplanationCodes; ++i) {
    decisions +=
        shard.counter(decision_base + static_cast<MetricId>(i));
  }
  EXPECT_DOUBLE_EQ(decisions, static_cast<double>(steps));
  EXPECT_DOUBLE_EQ(
      shard.counter(decision_base), 0.0);  // kUnset never recorded
  for (const sim::IntervalRecord& r : run->intervals) {
    EXPECT_NE(r.decision_code, scaler::ExplanationCode::kUnset);
    EXPECT_FALSE(r.decision_explanation.empty());
  }
}

TEST(ObservedSimulationTest, DigestsAreBitIdenticalAcrossRuns) {
  uint64_t metrics_digest[2] = {0, 1};
  uint64_t trace_digest[2] = {0, 1};
  for (int i = 0; i < 2; ++i) {
    Observability ob;
    sim::SimulationOptions options = SmallObservedOptions();
    options.obs = &ob;
    auto policy = MakeAuto(options.catalog);
    ASSERT_TRUE(sim::Simulation(options).Run(policy.get()).ok());
    metrics_digest[i] = MetricsDigest(ob.registry(), ob.primary());
    trace_digest[i] = TraceDigest(ob.trace());
  }
  EXPECT_EQ(metrics_digest[0], metrics_digest[1]);
  EXPECT_EQ(trace_digest[0], trace_digest[1]);
}

TEST(ObservedSimulationTest, ObservingDoesNotPerturbTheRun) {
  sim::SimulationOptions options = SmallObservedOptions();
  auto p1 = MakeAuto(options.catalog);
  auto plain = sim::Simulation(options).Run(p1.get());
  ASSERT_TRUE(plain.ok());

  Observability ob;
  options.obs = &ob;
  auto p2 = MakeAuto(options.catalog);
  auto observed = sim::Simulation(options).Run(p2.get());
  ASSERT_TRUE(observed.ok());

  EXPECT_EQ(plain->total_completed, observed->total_completed);
  EXPECT_DOUBLE_EQ(plain->total_cost, observed->total_cost);
  EXPECT_DOUBLE_EQ(plain->latency_p95_ms, observed->latency_p95_ms);
  EXPECT_EQ(plain->container_changes, observed->container_changes);
}

TEST(ObservedFleetTest, MetricsDigestIdenticalAtAnyThreadCount) {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  fleet::FleetOptions options;
  options.num_tenants = 60;
  options.num_intervals = 288;  // one day
  options.seed = 11;
  // Four blocks, hence four metric shards merged into the primary.
  options.block_size = 16;

  // Observing a run never perturbs it: every observed run's telemetry is
  // bit-identical to the unobserved run's. Every fleet metric is an
  // integer-valued sum, exact in any merge order, so the metrics digest
  // cannot see blocks merged out of order; the telemetry digest can.
  auto plain = fleet::FleetSimulator(catalog, options).Run();
  ASSERT_TRUE(plain.ok());
  const uint64_t plain_digest = fleet::TelemetryDigest(*plain);

  uint64_t digests[2] = {0, 1};
  for (int i = 0; i < 2; ++i) {
    Observability ob;
    options.num_threads = i == 0 ? 1 : 4;
    options.obs = &ob;
    auto observed = fleet::FleetSimulator(catalog, options).Run();
    ASSERT_TRUE(observed.ok());
    EXPECT_EQ(fleet::TelemetryDigest(*observed), plain_digest);
    const MetricShard& shard = ob.primary();
    EXPECT_DOUBLE_EQ(shard.counter(ob.pipeline().fleet_tenants_total),
                     60.0);
    EXPECT_DOUBLE_EQ(
        shard.counter(ob.pipeline().fleet_tenant_intervals_total),
        60.0 * 288.0);
    digests[i] = MetricsDigest(ob.registry(), ob.primary());
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace dbscale::obs
