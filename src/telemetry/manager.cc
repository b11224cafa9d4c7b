#include "src/telemetry/manager.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/string_util.h"
#include "src/stats/robust.h"
#include "src/stats/spearman.h"

namespace dbscale::telemetry {

namespace {

using container::ResourceKind;

double ResourceWaitMs(const SampleRow& s, ResourceKind kind) {
  double total = 0.0;
  auto mask = WaitClassesForResource(kind);
  for (int wc = 0; wc < kNumWaitClasses; ++wc) {
    if (mask[static_cast<size_t>(wc)]) {
      total += s.wait_ms[static_cast<size_t>(wc)];
    }
  }
  return total;
}

double MedianOrZero(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return stats::MedianInPlace(values).value_or(0.0);
}

stats::TrendResult TrendOrNone(const stats::TheilSenEstimator& estimator,
                               const std::vector<double>& values,
                               stats::TheilSenScratch* scratch) {
  if (values.size() < 3) return stats::TrendResult{};
  auto result = estimator.FitSequence(values, scratch);
  return result.ok() ? *result : stats::TrendResult{};
}

/// Spearman's rho of `x` against the series whose ranks `scratch->rank_y`
/// already holds (every correlation in one Compute shares the latency
/// window, so it is ranked once); 0 when rho is undefined.
double CorrelationOrZero(const std::vector<double>& x,
                         stats::SpearmanScratch* scratch) {
  if (x.size() < 3 || x.size() != scratch->rank_y.size()) return 0.0;
  stats::RankWithTiesInto(x, scratch->order, scratch->rank_x);
  auto rho = stats::PearsonCorrelation(scratch->rank_x, scratch->rank_y);
  return rho.ok() ? *rho : 0.0;
}

/// Fraction of the aggregation window's time span covered by samples.
/// Dropped/rejected samples leave gaps (the span grows, the covered time
/// does not).
double WindowCoverage(const std::vector<const SampleRow*>& agg) {
  if (agg.size() < 2) return 1.0;
  double covered = 0.0;
  for (const SampleRow* s : agg) covered += s->duration_sec();
  const double span =
      (agg.back()->period_end - agg.front()->period_start).ToSeconds();
  return span > covered ? covered / span : 1.0;
}

}  // namespace

const char* LatencyAggregateToString(LatencyAggregate agg) {
  switch (agg) {
    case LatencyAggregate::kAverage:
      return "average";
    case LatencyAggregate::kP95:
      return "p95";
  }
  return "?";
}

std::string SignalSnapshot::ToString() const {
  if (!valid) return "<invalid snapshot>";
  // Allocating ToString diagnostic; not on the per-interval signal path.
  // dbscale-lint: allow(alloc-hot-path)
  std::string out = StrFormat(
      "t=%.0fs latency(%s)=%.1fms trend=%s thr=%.1frps",
      time.ToSeconds(), LatencyAggregateToString(latency_aggregate),
      latency_ms, stats::TrendDirectionToString(latency_trend.direction),
      throughput_rps);
  for (ResourceKind kind : container::kAllResources) {
    const ResourceSignals& r = resource(kind);
    out += StrFormat(
        " | %s: util=%.0f%% wait=%.0fms(%.0f%%) corr=%.2f",
        container::ResourceKindToString(kind), r.utilization_pct, r.wait_ms,
        r.wait_pct, r.wait_latency_correlation);
  }
  return out;
}

TelemetryManager::TelemetryManager(TelemetryManagerOptions options)
    : options_(options),
      trend_estimator_(options.trend_accept_fraction) {}

Status TelemetryManager::Validate() const {
  if (options_.aggregation_samples < 1) {
    return Status::InvalidArgument("aggregation_samples must be >= 1");
  }
  if (options_.trend_samples < 3) {
    return Status::InvalidArgument("trend_samples must be >= 3");
  }
  if (options_.correlation_samples < 3) {
    return Status::InvalidArgument("correlation_samples must be >= 3");
  }
  if (options_.trend_accept_fraction <= 0.5 ||
      options_.trend_accept_fraction > 1.0) {
    return Status::OutOfRange("trend_accept_fraction must be in (0.5, 1]");
  }
  if (options_.min_confidence <= 0.0 || options_.min_confidence > 1.0) {
    return Status::OutOfRange("min_confidence must be in (0, 1]");
  }
  return Status::OK();
}

SignalSnapshot TelemetryManager::Compute(const TelemetryStore& store,
                                         SimTime now, SignalScratch* scratch,
                                         const obs::Sink& sink) const {
  SignalSnapshot snap = ComputeBatch(store, now, scratch);
  if (sink.pipeline != nullptr) {
    sink.metrics.Add(sink.pipeline->telemetry_computes_total, 1.0);
    if (!snap.valid) {
      sink.metrics.Add(sink.pipeline->telemetry_invalid_snapshots_total, 1.0);
    }
    if (snap.degraded) {
      sink.metrics.Add(sink.pipeline->telemetry_degraded_windows_total, 1.0);
    }
  }
  return snap;
}

SignalSnapshot TelemetryManager::ComputeBatch(const TelemetryStore& store,
                                              SimTime now,
                                              SignalScratch* scratch) const {
  SignalScratch local;
  if (scratch == nullptr) scratch = &local;

  SignalSnapshot snap;
  snap.time = now;
  snap.latency_aggregate = options_.latency_aggregate;
  if (store.size() < 2) {
    snap.valid = false;
    return snap;
  }
  snap.valid = true;

  store.RecentInto(options_.aggregation_samples, scratch->agg_window);
  store.RecentInto(options_.trend_samples, scratch->trend_window);
  store.RecentInto(options_.correlation_samples, scratch->corr_window);
  const auto& agg = scratch->agg_window;
  const auto& trend = scratch->trend_window;
  const auto& corr = scratch->corr_window;

  snap.confidence = WindowCoverage(agg);
  snap.degraded = snap.confidence < options_.min_confidence;

  auto latency_of = [&](const SampleRow& s) {
    return options_.latency_aggregate == LatencyAggregate::kAverage
               ? s.latency_avg_ms
               : s.latency_p95_ms;
  };

  // Latency signal: robust aggregate over the window, ignoring idle samples
  // (no completions) which carry no latency information.
  {
    std::vector<double>& lat = scratch->values_a;
    lat.clear();
    for (const SampleRow* s : agg) {
      if (s->requests_completed > 0) lat.push_back(latency_of(*s));
    }
    snap.latency_ms = MedianOrZero(lat);
  }
  {
    std::vector<double>& lat = scratch->values_a;
    lat.clear();
    for (const SampleRow* s : trend) {
      if (s->requests_completed > 0) lat.push_back(latency_of(*s));
    }
    snap.latency_trend =
        TrendOrNone(trend_estimator_, lat, &scratch->theil_sen);
  }

  // Workload-level aggregates.
  {
    std::vector<double>& thr = scratch->values_a;
    std::vector<double>& mem = scratch->values_b;
    std::vector<double>& reads = scratch->values_c;
    std::vector<double>& total_wait = scratch->values_d;
    thr.clear();
    mem.clear();
    reads.clear();
    total_wait.clear();
    for (const SampleRow* s : agg) {
      thr.push_back(s->throughput_rps());
      mem.push_back(s->memory_used_mb);
      double sec = s->duration_sec();
      reads.push_back(sec > 0
                          ? static_cast<double>(s->physical_reads) / sec
                          : 0.0);
      total_wait.push_back(s->total_wait_ms());
    }
    snap.throughput_rps = MedianOrZero(thr);
    snap.memory_used_mb = MedianOrZero(mem);
    snap.physical_reads_per_sec = MedianOrZero(reads);
    snap.total_wait_ms = MedianOrZero(total_wait);
    snap.allocation = store.allocation();
  }

  // Wait share per class over the aggregation window (sums, not medians:
  // shares must add to 100).
  {
    double grand_total = 0.0;
    std::array<double, kNumWaitClasses> sums{};
    for (const SampleRow* s : agg) {
      for (int wc = 0; wc < kNumWaitClasses; ++wc) {
        sums[static_cast<size_t>(wc)] += s->wait_ms[static_cast<size_t>(wc)];
        grand_total += s->wait_ms[static_cast<size_t>(wc)];
      }
    }
    for (int wc = 0; wc < kNumWaitClasses; ++wc) {
      snap.wait_pct_by_class[static_cast<size_t>(wc)] =
          grand_total > 0.0
              ? 100.0 * sums[static_cast<size_t>(wc)] / grand_total
              : 0.0;
    }
  }

  // Per-resource signals.
  std::vector<double>& corr_latency = scratch->corr_latency;
  corr_latency.clear();
  for (const SampleRow* s : corr) corr_latency.push_back(latency_of(*s));
  stats::RankWithTiesInto(corr_latency, scratch->spearman.order,
                          scratch->spearman.rank_y);

  for (ResourceKind kind : container::kAllResources) {
    ResourceSignals& r = snap.resources[static_cast<size_t>(kind)];
    const size_t ri = static_cast<size_t>(kind);

    std::vector<double>& util = scratch->values_a;
    std::vector<double>& wait = scratch->values_b;
    std::vector<double>& wait_per_req = scratch->values_c;
    util.clear();
    wait.clear();
    wait_per_req.clear();
    double wait_sum = 0.0, total_sum = 0.0;
    for (const SampleRow* s : agg) {
      util.push_back(s->utilization_pct[ri]);
      double w = ResourceWaitMs(*s, kind);
      wait.push_back(w);
      wait_per_req.push_back(
          w / static_cast<double>(std::max<int64_t>(
                  1, s->requests_completed)));
      wait_sum += w;
      total_sum += s->total_wait_ms();
    }
    r.utilization_pct = MedianOrZero(util);
    r.wait_ms = MedianOrZero(wait);
    r.wait_ms_per_request = MedianOrZero(wait_per_req);
    r.wait_pct = total_sum > 0.0 ? 100.0 * wait_sum / total_sum : 0.0;

    std::vector<double>& util_t = scratch->values_a;
    std::vector<double>& wait_t = scratch->values_b;
    util_t.clear();
    wait_t.clear();
    for (const SampleRow* s : trend) {
      util_t.push_back(s->utilization_pct[ri]);
      wait_t.push_back(ResourceWaitMs(*s, kind));
    }
    r.utilization_trend =
        TrendOrNone(trend_estimator_, util_t, &scratch->theil_sen);
    r.wait_trend = TrendOrNone(trend_estimator_, wait_t, &scratch->theil_sen);

    std::vector<double>& util_c = scratch->values_a;
    std::vector<double>& wait_c = scratch->values_b;
    util_c.clear();
    wait_c.clear();
    for (const SampleRow* s : corr) {
      util_c.push_back(s->utilization_pct[ri]);
      wait_c.push_back(ResourceWaitMs(*s, kind));
    }
    r.wait_latency_correlation = CorrelationOrZero(wait_c, &scratch->spearman);
    r.utilization_latency_correlation =
        CorrelationOrZero(util_c, &scratch->spearman);
  }

  return snap;
}

}  // namespace dbscale::telemetry
