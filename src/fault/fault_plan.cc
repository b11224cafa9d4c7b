#include "src/fault/fault_plan.h"

#include <cmath>
#include <limits>

namespace dbscale::fault {

namespace {

[[nodiscard]] Status CheckProbability(const char* name, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        std::string(name) + " must be a probability in [0, 1]");
  }
  return Status::OK();
}

}  // namespace

bool FaultPlanOptions::enabled() const {
  return resize.failure_probability > 0.0 ||
         resize.rejection_probability > 0.0 ||
         resize.max_latency_intervals > 0 ||
         telemetry.drop_probability > 0.0 ||
         telemetry.nan_probability > 0.0 ||
         telemetry.outlier_probability > 0.0 ||
         telemetry.stale_probability > 0.0;
}

Status FaultPlanOptions::Validate() const {
  DBSCALE_RETURN_IF_ERROR(
      CheckProbability("resize.failure_probability",
                       resize.failure_probability));
  DBSCALE_RETURN_IF_ERROR(
      CheckProbability("resize.rejection_probability",
                       resize.rejection_probability));
  if (resize.failure_probability + resize.rejection_probability > 1.0) {
    return Status::InvalidArgument(
        "resize failure + rejection probabilities exceed 1");
  }
  if (resize.min_latency_intervals < 0 ||
      resize.max_latency_intervals < resize.min_latency_intervals) {
    return Status::InvalidArgument(
        "resize latency range must satisfy 0 <= min <= max");
  }
  DBSCALE_RETURN_IF_ERROR(
      CheckProbability("telemetry.drop_probability",
                       telemetry.drop_probability));
  DBSCALE_RETURN_IF_ERROR(
      CheckProbability("telemetry.nan_probability",
                       telemetry.nan_probability));
  DBSCALE_RETURN_IF_ERROR(
      CheckProbability("telemetry.outlier_probability",
                       telemetry.outlier_probability));
  DBSCALE_RETURN_IF_ERROR(
      CheckProbability("telemetry.stale_probability",
                       telemetry.stale_probability));
  if (telemetry.drop_probability + telemetry.nan_probability +
          telemetry.outlier_probability + telemetry.stale_probability >
      1.0) {
    return Status::InvalidArgument(
        "telemetry fault probabilities sum beyond 1");
  }
  if (telemetry.outlier_probability > 0.0 &&
      telemetry.outlier_factor <= 1.0) {
    return Status::InvalidArgument("outlier_factor must be > 1");
  }
  return Status::OK();
}

// Options are validated by the owning simulation before any draw is made
// (Simulation::Run / FleetSimulation::Run call options.fault.Validate()).
// dbscale-lint: allow(options-validate)
FaultPlan::FaultPlan(const FaultPlanOptions& options, Rng rng)
    : options_(options), rng_(rng), enabled_(options.enabled()) {}

ResizeFaultDraw FaultPlan::NextResizeFault() {
  ResizeFaultDraw draw;
  if (!enabled_) return draw;
  // Fixed draw shape per attempt — one fate uniform, one latency draw when
  // the range is randomized — so the fault stream depends only on the call
  // sequence, never on which branch a previous attempt took.
  const double u = rng_.NextDouble();
  if (u < options_.resize.rejection_probability) {
    draw.fate = ResizeFate::kRejected;
  } else if (u < options_.resize.rejection_probability +
                     options_.resize.failure_probability) {
    draw.fate = ResizeFate::kTransientFailure;
  }
  const ResizeFaultOptions& r = options_.resize;
  draw.latency_intervals =
      r.max_latency_intervals > r.min_latency_intervals
          ? static_cast<int>(rng_.UniformInt(r.min_latency_intervals,
                                             r.max_latency_intervals))
          : r.min_latency_intervals;
  if (draw.fate == ResizeFate::kRejected) draw.latency_intervals = 0;
  return draw;
}

SampleFault FaultPlan::NextSampleFault() {
  if (!enabled_) return SampleFault::kNone;
  const TelemetryFaultOptions& t = options_.telemetry;
  // One uniform partitioned over the fault kinds: cheap (one draw per
  // sample on the hot collection path) and order-stable.
  const double u = rng_.NextDouble();
  double edge = t.drop_probability;
  if (u < edge) return SampleFault::kDrop;
  edge += t.nan_probability;
  if (u < edge) return SampleFault::kNan;
  edge += t.outlier_probability;
  if (u < edge) return SampleFault::kOutlier;
  edge += t.stale_probability;
  if (u < edge) return SampleFault::kStale;
  return SampleFault::kNone;
}

void FaultPlan::CorruptSample(SampleFault fault,
                              telemetry::TelemetrySample* sample) const {
  switch (fault) {
    case SampleFault::kNan: {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      sample->latency_avg_ms = nan;
      sample->latency_p95_ms = nan;
      sample->utilization_pct[0] = nan;
      return;
    }
    case SampleFault::kOutlier: {
      const double f = options_.telemetry.outlier_factor;
      sample->latency_avg_ms *= f;
      sample->latency_p95_ms *= f;
      sample->latency_max_ms *= f;
      for (double& w : sample->wait_ms) w *= f;
      return;
    }
    case SampleFault::kNone:
    case SampleFault::kDrop:
    case SampleFault::kStale:
      return;
  }
}

bool SampleLooksValid(const telemetry::TelemetrySample& sample) {
  for (double u : sample.utilization_pct) {
    if (!std::isfinite(u)) return false;
  }
  for (double w : sample.wait_ms) {
    if (!std::isfinite(w)) return false;
  }
  return std::isfinite(sample.latency_avg_ms) &&
         std::isfinite(sample.latency_p95_ms) &&
         std::isfinite(sample.latency_max_ms) &&
         std::isfinite(sample.memory_used_mb) &&
         std::isfinite(sample.memory_active_mb);
}

// dbscale-hot: one call per collected sample under a fault plan.
SampleFault TelemetryFaultEdge::Apply(FaultPlan* plan,
                                      telemetry::TelemetrySample* sample) {
  SampleFault fault = plan->NextSampleFault();
  if (fault == SampleFault::kStale && !have_clean_) fault = SampleFault::kNone;
  switch (fault) {
    case SampleFault::kNone:
      last_clean_ = *sample;
      have_clean_ = true;
      break;
    case SampleFault::kStale: {
      const SimTime start = sample->period_start;
      const SimTime end = sample->period_end;
      *sample = last_clean_;
      sample->period_start = start;
      sample->period_end = end;
      break;
    }
    case SampleFault::kNan:
    case SampleFault::kOutlier:
      plan->CorruptSample(fault, sample);
      break;
    case SampleFault::kDrop:
      break;
  }
  return fault;
}

}  // namespace dbscale::fault
