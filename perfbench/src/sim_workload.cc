// sim-paper: sim::Simulation with the paper's Auto over its Fig. 9 pairing
// (CPUIO on trace 2) and Fig. 10 pairing (TPC-C on trace 4), full 1440
// steps, one thread. Set-up is the paper's own: a Max run per pairing sets
// the latency goal at 1.25x Max's p95. One measured unit is one Auto run of
// each pairing; every unit repeats the same seeded runs, so cost and goal
// misses are exact and every unit must reproduce the first.
//
// Throughput: a unit takes seconds, while the host's cache contention
// swings within seconds. Every interval is timed (Decide return to Decide
// return) and the phase's time is the sum over intervals of each one's
// fastest repeat, so a contended moment costs only the intervals it hit
// and only when no other repeat of them ran clean.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/container/catalog.h"
#include "src/scaler/autoscaler.h"
#include "src/sim/experiment.h"
#include "src/sim/simulation.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sim = ::dbscale::sim;
namespace workload = ::dbscale::workload;

constexpr double kGoalFactor = 1.25;

struct Pairing {
  const char* name;
  sim::SimulationOptions options;
  double goal_ms = 0.0;
};

std::vector<Pairing> MakePairings(uint64_t seed) {
  std::vector<Pairing> out(2);
  out[0].name = "fig9-cpuio-trace2";
  out[0].options.workload = workload::MakeCpuioWorkload();
  out[0].options.trace = workload::MakeTrace2LongBurst();
  out[1].name = "fig10-tpcc-trace4";
  out[1].options.workload = workload::MakeTpccWorkload();
  out[1].options.trace = workload::MakeTrace4ManyBursts();
  for (Pairing& p : out) {
    p.options.catalog = container::Catalog::MakeLockStep();
    p.options.interval_duration = dbscale::Duration::Seconds(20);
    p.options.seed = seed;
    // Online policies observe the aggregate the goal is written in.
    p.options.telemetry.latency_aggregate = telemetry::LatencyAggregate::kP95;
  }
  return out;
}

/// What one Auto run produced, compared across units for determinism.
struct RunSummary {
  double total_cost = 0.0;
  uint64_t misses = 0;
  uint64_t intervals = 0;
  uint64_t events = 0;
  uint64_t completed = 0;

  bool operator==(const RunSummary&) const = default;
};

/// Traced ledger, summed over a phase. One thread runs everything, so all
/// rows are wall ns and the gaps between Decide calls share the clock of
/// the run total.
struct SimLedger {
  uint64_t run_ns = 0;
  uint64_t decide_ns = 0;
  uint64_t engine_ns = 0;  // between consecutive Decide calls
  uint64_t changed = 0;
  uint64_t events = 0;
  uint64_t completed = 0;
  std::vector<double> decide_us;
};

/// Stamps the wall clock as each Decide returns: consecutive stamps bound
/// one interval (engine run, telemetry Compute, Decide).
class StampedPolicy : public scaler::ScalingPolicy {
 public:
  StampedPolicy(std::unique_ptr<scaler::ScalingPolicy> inner,
                std::vector<uint64_t>* stamps)
      : inner_(std::move(inner)), stamps_(stamps) {}

  scaler::ScalingDecision Decide(const scaler::PolicyInput& input) override {
    scaler::ScalingDecision decision = inner_->Decide(input);
    stamps_->push_back(WallNs());
    return decision;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<scaler::ScalingPolicy> inner_;
  std::vector<uint64_t>* stamps_;
};

class SimBench {
 public:
  SimBench(uint64_t seed, bool hooks)
      : pairings_(MakePairings(seed)),
        hooks_(hooks),
        best_ns_(pairings_.size()) {
    if (hooks_) ledger_ = std::make_unique<DecideLedger>(4, 4096);
  }

  /// The Max runs that fix each pairing's latency goal.
  void SetGoals() {
    for (Pairing& p : pairings_) {
      auto max_run = sim::RunMax(p.options);
      DBSCALE_CHECK_OK(max_run.status());
      p.goal_ms =
          kGoalFactor * max_run->LatencyMs(telemetry::LatencyAggregate::kP95);
      DBSCALE_CHECK(p.goal_ms > 0.0);
    }
  }

  /// One Auto run per pairing; returns intervals simulated.
  uint64_t RunUnit(bool traced, Report* report, SpanLog* spans,
                   SimLedger* ledger) {
    uint64_t intervals = 0;
    if (ledger_ != nullptr) ledger_->set_enabled(traced);
    for (size_t i = 0; i < pairings_.size(); ++i) {
      const Pairing& p = pairings_[i];
      scaler::TenantKnobs knobs;
      knobs.latency_goal =
          scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, p.goal_ms};
      auto created = scaler::AutoScaler::Create(p.options.catalog, knobs);
      DBSCALE_CHECK_OK(created.status());
      std::unique_ptr<scaler::ScalingPolicy> policy =
          std::move(created).value();
      if (hooks_) {
        policy = std::make_unique<TracedPolicy>(std::move(policy), i, false,
                                                p.goal_ms, ledger_.get());
      }
      stamps_.clear();
      policy = std::make_unique<StampedPolicy>(std::move(policy), &stamps_);
      sim::SimulationOptions options = p.options;
      options.initial_rung = 3;
      sim::Simulation simulation(std::move(options));
      const uint64_t w0 = WallNs();
      auto run = simulation.Run(policy.get());
      const uint64_t w1 = WallNs();
      report->Check(run.ok(), std::string(p.name) + " run completes");
      if (!run.ok()) continue;
      std::vector<double>& best = best_ns_[i];
      if (best.empty()) best.assign(stamps_.size(), 1e300);
      report->Check(best.size() == stamps_.size(),
                    std::string(p.name) + " decides once per interval");
      for (size_t k = 0; k < stamps_.size() && k < best.size(); ++k) {
        const uint64_t from = k == 0 ? w0 : stamps_[k - 1];
        best[k] = std::min(best[k], static_cast<double>(stamps_[k] - from));
      }
      const RunSummary summary = Summarize(*run, p.goal_ms, report, p.name);
      intervals += summary.intervals;
      if (summaries_.size() < pairings_.size()) {
        summaries_.push_back(summary);
      } else {
        report->Check(summary == summaries_[i],
                      std::string(p.name) + " repeats the first unit exactly");
      }
      if (!traced) continue;
      spans->Add("sim.run", -1, w0, w1 - w0, static_cast<int64_t>(i));
      ledger->run_ns += w1 - w0;
      const std::vector<DecideRecord> records = ledger_->TakeRecords();
      for (size_t k = 0; k < records.size(); ++k) {
        const DecideRecord& rec = records[k];
        ledger->decide_ns += rec.end_ns - rec.start_ns;
        ledger->decide_us.push_back(
            static_cast<double>(rec.end_ns - rec.start_ns) / 1e3);
        if (rec.changed) ++ledger->changed;
        // The gap before a Decide is the interval's engine run, its
        // telemetry Compute and the loop. The first interval's gap also
        // holds the run's construction, so it stays unattributed.
        if (k > 0) ledger->engine_ns += rec.start_ns - records[k - 1].end_ns;
      }
      ledger->events += run->events_processed;
      ledger->completed += run->total_completed;
    }
    if (ledger_ != nullptr) ledger_->set_enabled(false);
    return intervals;
  }

  /// Forgets the fastest interval times (at the start of a phase).
  void ResetBest() {
    for (std::vector<double>& best : best_ns_) best.clear();
  }
  /// Intervals per second over one unit timed at each interval's fastest
  /// repeat since ResetBest.
  double BestRate() const {
    double ns = 0.0;
    size_t intervals = 0;
    for (const std::vector<double>& best : best_ns_) {
      for (double v : best) ns += v;
      intervals += best.size();
    }
    return ns > 0.0 ? static_cast<double>(intervals) / (ns / 1e9) : 0.0;
  }

  const std::vector<RunSummary>& summaries() const { return summaries_; }
  const DecideLedger* ledger() const { return ledger_.get(); }

 private:
  static RunSummary Summarize(const sim::RunResult& run, double goal_ms,
                              Report* report, const char* name) {
    RunSummary s;
    s.intervals = run.intervals.size();
    s.events = run.events_processed;
    s.completed = run.total_completed;
    s.total_cost = run.total_cost;
    double cost_sum = 0.0;
    uint64_t unexplained = 0;
    for (const sim::IntervalRecord& r : run.intervals) {
      cost_sum += r.cost;
      if (r.latency_p95_ms > goal_ms || r.errors > 0) ++s.misses;
      if (r.decision_code == scaler::ExplanationCode::kUnset) ++unexplained;
    }
    report->Attempt(s.intervals);
    report->Fail(unexplained, std::string(name) + " intervals without an explanation");
    report->Check(unexplained == 0,
                  std::string(name) + " every interval carries an explanation");
    report->Check(cost_sum == run.total_cost,
                  std::string(name) + " total cost == sum of interval costs");
    return s;
  }

  std::vector<Pairing> pairings_;
  bool hooks_;
  std::unique_ptr<DecideLedger> ledger_;
  std::vector<RunSummary> summaries_;
  std::vector<uint64_t> stamps_;
  /// Per pairing, per interval: the fastest wall ns seen this phase.
  std::vector<std::vector<double>> best_ns_;
};


}  // namespace

void RunSimPaper(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<SimBench> bench;
  for (int r = 0; r < kSimSetupRepeats; ++r) {
    bench.reset();
    ReleaseFreedMemory();
    const uint64_t t0 = WallNs();
    bench = std::make_unique<SimBench>(args.seed, args.trace);
    bench->SetGoals();
    setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
  }

  SpanLog spans;
  const auto measure = [&](bool traced, SimLedger* ledger) {
    bench->ResetBest();
    uint64_t intervals = 0;
    const uint64_t start = WallNs();
    do {
      intervals += bench->RunUnit(traced, report, &spans, ledger);
    } while (WallNs() - start <
             static_cast<uint64_t>(args.seconds) * 1000000000ull);
    return std::make_pair(bench->BestRate(), intervals);
  };

  SimLedger unused;
  const double rate = measure(false, &unused).first;
  uint64_t det_intervals = 0, det_misses = 0;
  double det_cost = 0.0;
  for (const RunSummary& s : bench->summaries()) {
    det_intervals += s.intervals;
    det_misses += s.misses;
    det_cost += s.total_cost;
  }
  const double miss = PerTi(static_cast<double>(det_misses), det_intervals);
  const double cost = PerTi(det_cost, det_intervals);
  std::fprintf(stderr,
               "perfbench: sim-paper cost_per_tenant_interval %.4f, %llu of "
               "%llu intervals missed the goal\n",
               cost, static_cast<unsigned long long>(det_misses),
               static_cast<unsigned long long>(det_intervals));

  if (!args.trace) {
    report->Metric("tenant_intervals_per_s", rate, "1/s");
    report->Metric("goal_miss_frac", miss, "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("setup_s", Median(setup_s), "s");
    return;
  }

  SimLedger ledger;
  const auto [traced_rate, ti] = measure(true, &ledger);
  const ScalerReplay replay =
      ReplayScaler(bench->ledger()->captures(), nullptr, /*passes=*/5);
  const double total = PerTi(static_cast<double>(ledger.run_ns), ti);
  const double decide = PerTi(static_cast<double>(ledger.decide_ns), ti);
  const double engine = PerTi(static_cast<double>(ledger.engine_ns), ti);

  report->Metric("cost_per_tenant_interval", cost, "price");
  report->Metric("scaler.decide_ns.auto", decide, "ns");
  report->Metric("scaler.decide_p99_us", Percentile(ledger.decide_us, 0.99), "us");
  report->Metric("scaler.categorize_ns", replay.categorize_ns, "ns");
  report->Metric("scaler.estimate_ns", replay.estimate_ns, "ns");
  report->Metric("scaler.decide_rest_ns",
                 decide - replay.categorize_ns - replay.estimate_ns, "ns");
  report->Metric("scaler.change_frac", PerTi(static_cast<double>(ledger.changed), ti), "ratio");
  report->Metric("sim.total_ns", total, "ns");
  report->Metric("sim.decide_ns", decide, "ns");
  report->Metric("sim.engine_ns", engine, "ns");
  report->Metric("sim.unattributed_ns", total - decide - engine, "ns");
  report->Metric("engine.events", PerTi(static_cast<double>(ledger.events), ti), "count");
  report->Metric("engine.ns_per_event",
                 PerTi(static_cast<double>(ledger.engine_ns), ledger.events), "ns");
  report->Metric("engine.requests_completed",
                 PerTi(static_cast<double>(ledger.completed), ti), "count");
  ReportTraceOverhead(rate, traced_rate, report);
  if (!args.trace_out.empty() && !spans.WriteJsonl(args.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 args.trace_out.c_str());
  }
}

}  // namespace perfbench
