#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "src/scaler/categories.h"
#include "src/scaler/demand_estimator.h"
#include "src/scaler/diagonal.h"
#include "src/scaler/thresholds.h"

namespace perfbench {

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<uint64_t>(info.uordblks) +
         static_cast<uint64_t>(info.hblkhd);
}

void ReleaseFreedMemory() { malloc_trim(0); }

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx =
      rank <= 1.0 ? 0 : std::min(v.size() - 1, static_cast<size_t>(rank) - 1);
  return v[idx];
}

double Throughput(const std::vector<double>& unit_rates) {
  return Percentile(unit_rates, 0.9);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Metric(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Fail(uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "perfbench: %llu failed: %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  Fail(1, "check failed: " + what);
}

namespace {

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + Number(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

void ReportTraceOverhead(double untraced_per_s, double traced_per_s,
                         Report* report) {
  std::fprintf(stderr,
               "perfbench: %.6g tenant-intervals/s untraced, %.6g traced\n",
               untraced_per_s, traced_per_s);
  report->Metric("trace.overhead_frac", 1.0 - traced_per_s / untraced_per_s,
                 "ratio");
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

SpanLog::SpanLog() : origin_ns_(WallNs()) { spans_.reserve(1 << 16); }

int64_t SpanLog::Add(const char* name, int64_t parent, uint64_t start_ns,
                     uint64_t dur_ns, int64_t tenant, int interval) {
  spans_.push_back(Span{name, parent, start_ns, dur_ns, tenant, interval});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, ", i,
                 s.name, static_cast<long long>(s.parent));
    if (s.start_ns == 0) {
      std::fprintf(f, "\"start_ns\": null, ");
    } else {
      std::fprintf(f, "\"start_ns\": %llu, ",
                   static_cast<unsigned long long>(s.start_ns - origin_ns_));
    }
    std::fprintf(f, "\"dur_ns\": %llu", static_cast<unsigned long long>(s.dur_ns));
    if (s.tenant >= 0) {
      std::fprintf(f, ", \"tenant\": %lld, \"interval\": %d",
                   static_cast<long long>(s.tenant), s.interval);
    }
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// DecideLedger / TracedPolicy
// ---------------------------------------------------------------------------

DecideLedger::DecideLedger(size_t capture_stride, size_t max_captures)
    : capture_stride_(std::max<size_t>(1, capture_stride)),
      max_captures_(max_captures) {
  captures_.reserve(max_captures_);
}

void DecideLedger::Record(const DecideRecord& record,
                          const scaler::PolicyInput& input,
                          const scaler::ScalingDecision& decision,
                          double goal_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
  if (seen_++ % capture_stride_ == 0 && captures_.size() < max_captures_ &&
      input.signals.valid) {
    captures_.push_back(
        DecideCapture{input.signals, decision.demand, goal_ms, record.diagonal});
  }
}

std::vector<DecideRecord> DecideLedger::TakeRecords() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DecideRecord> out;
  out.swap(records_);
  return out;
}

scaler::ScalingDecision TracedPolicy::Decide(const scaler::PolicyInput& input) {
  if (!ledger_->enabled()) return inner_->Decide(input);
  const uint64_t start = WallNs();
  scaler::ScalingDecision decision = inner_->Decide(input);
  const uint64_t end = WallNs();
  ledger_->Record(DecideRecord{tenant_, input.interval_index, start, end,
                               diagonal_, decision.Changed(input.current)},
                  input, decision, goal_ms_);
  return decision;
}

// ---------------------------------------------------------------------------
// Scaler sub-step replay
// ---------------------------------------------------------------------------

ScalerReplay ReplayScaler(const std::vector<DecideCapture>& captures,
                          const container::Catalog* flexible, int passes) {
  ScalerReplay out;
  if (captures.empty()) return out;
  const scaler::SignalThresholds thresholds =
      scaler::SignalThresholds::Default();
  const scaler::CategorizeOptions categorize_options;
  const scaler::DemandEstimator estimator;
  std::optional<scaler::DiagonalOptimizer> optimizer;
  if (flexible != nullptr) optimizer.emplace(*flexible);
  // No tenant sets a budget knob, so the optimizer's budget never binds.
  constexpr double kUnboundedBudget = 1e12;

  std::vector<std::optional<scaler::LatencyGoal>> goals(captures.size());
  size_t diagonal = 0;
  for (size_t i = 0; i < captures.size(); ++i) {
    goals[i] = scaler::LatencyGoal{telemetry::LatencyAggregate::kP95,
                                   captures[i].goal_ms};
    if (captures[i].diagonal) ++diagonal;
  }
  std::vector<scaler::CategorizedSignals> cats(captures.size());
  std::vector<double> categorize, estimate, optimize;
  double keep = 0.0;  // consumed below so no replayed call is dead code
  for (int pass = 0; pass < passes; ++pass) {
    const uint64_t t0 = WallNs();
    for (size_t i = 0; i < captures.size(); ++i) {
      cats[i] = scaler::Categorize(captures[i].signals, thresholds, goals[i],
                                   categorize_options);
    }
    const uint64_t t1 = WallNs();
    for (size_t i = 0; i < captures.size(); ++i) {
      keep += estimator.Estimate(cats[i]).For(container::ResourceKind::kCpu)
                  .steps;
    }
    const uint64_t t2 = WallNs();
    for (size_t i = 0; i < captures.size() && optimizer.has_value(); ++i) {
      if (!captures[i].diagonal) continue;
      keep += optimizer->Solve(captures[i].demand, kUnboundedBudget).price;
    }
    const uint64_t t3 = WallNs();
    const double n = static_cast<double>(captures.size());
    categorize.push_back(static_cast<double>(t1 - t0) / n);
    estimate.push_back(static_cast<double>(t2 - t1) / n);
    if (diagonal > 0) {
      optimize.push_back(static_cast<double>(t3 - t2) /
                         static_cast<double>(diagonal));
    }
  }
  if (keep == -1.0) std::fprintf(stderr, "perfbench: replay sink\n");
  out.categorize_ns = Median(categorize);
  out.estimate_ns = Median(estimate);
  out.optimizer_ns = Median(optimize);
  return out;
}

}  // namespace perfbench
