// Deterministic fault injection for the closed scaling loop.
//
// The paper's Auto runs against a real DaaS where container resizes take
// time and can fail, and where telemetry arrives late, noisy, or not at
// all. A FaultPlan is the seeded source of those imperfections:
//
//   * resize faults    — actuation latency (in billing intervals, fixed or
//                        uniformly randomized), transient failures revealed
//                        only after the latency elapses, and permanent
//                        rejections reported immediately;
//   * telemetry faults — dropped samples, NaN-corrupted samples (rejected
//                        by the ingestion guard), outlier samples (absorbed
//                        by the robust aggregates), and stale reads that
//                        replay the previous sample.
//
// All draws flow through one Rng forked from the harness's root generator
// (per tenant in the fleet), so fault sequences are reproducible bit-for-
// bit from the seed and independent of thread count. A default-constructed
// (null) FaultPlan never draws and injects nothing, which keeps unfaulted
// runs bit-identical to a build without this subsystem.

#ifndef DBSCALE_FAULT_FAULT_PLAN_H_
#define DBSCALE_FAULT_FAULT_PLAN_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/telemetry/sample.h"

namespace dbscale::fault {

/// Faults on the resize actuation channel.
struct ResizeFaultOptions {
  /// Probability a resize fails transiently (after its latency elapses);
  /// the caller may retry.
  double failure_probability = 0.0;
  /// Probability a resize is rejected outright (reported immediately;
  /// retrying the same target is pointless until conditions change).
  double rejection_probability = 0.0;
  /// Actuation latency in billing intervals, drawn uniformly from
  /// [min, max]. 0/0 applies resizes within the issuing interval (the
  /// pre-fault-layer behavior).
  int min_latency_intervals = 0;
  int max_latency_intervals = 0;
};

/// Faults on the telemetry collection channel.
struct TelemetryFaultOptions {
  /// Probability a sample is dropped (never reaches the store).
  double drop_probability = 0.0;
  /// Probability a sample arrives NaN-corrupted. The ingestion guard
  /// rejects it, so the net effect is a gap like a drop — but exercised
  /// through the validity check rather than around it.
  double nan_probability = 0.0;
  /// Probability a sample's latency/wait figures are inflated by
  /// `outlier_factor` (interference spikes the robust medians absorb).
  double outlier_probability = 0.0;
  double outlier_factor = 8.0;
  /// Probability the collector returns the previous sample again (stale
  /// read) instead of fresh counters.
  double stale_probability = 0.0;
};

/// The full fault profile; all-zero (the default) means no faults.
struct FaultPlanOptions {
  ResizeFaultOptions resize;
  TelemetryFaultOptions telemetry;

  /// True when any fault can fire. A disabled plan must never draw from
  /// the RNG, so enabling it later cannot perturb existing streams.
  bool enabled() const;
  /// Probability/range sanity checks.
  Status Validate() const;
};

/// How a resize attempt ultimately resolves (drawn at issue time; a
/// transient failure is only *revealed* after the latency elapses).
enum class ResizeFate : uint8_t { kApplied, kTransientFailure, kRejected };

struct ResizeFaultDraw {
  ResizeFate fate = ResizeFate::kApplied;
  int latency_intervals = 0;
};

/// Fault injected into one telemetry sample.
enum class SampleFault : uint8_t { kNone, kDrop, kNan, kOutlier, kStale };

/// \brief Seeded fault source. Default-constructed plans are null: enabled()
/// is false, no method draws, and every resize applies cleanly.
class FaultPlan {
 public:
  FaultPlan() = default;
  /// `options` should be Validate()d by the caller; the rng is typically a
  /// Fork() of the harness's root generator.
  FaultPlan(const FaultPlanOptions& options, Rng rng);

  bool enabled() const { return enabled_; }
  const FaultPlanOptions& options() const { return options_; }

  /// Draws the fate of the next resize attempt. Null plans return
  /// {kApplied, 0} without touching the RNG.
  ResizeFaultDraw NextResizeFault();

  /// Draws the fault (if any) for the next telemetry sample. One uniform
  /// draw per call; null plans return kNone without touching the RNG.
  SampleFault NextSampleFault();

  /// Applies kNan / kOutlier corruption to `sample` in place; other kinds
  /// are no-ops (the caller handles drop/stale at the ingestion site).
  void CorruptSample(SampleFault fault,
                     telemetry::TelemetrySample* sample) const;

  /// Generator position, for the fleet checkpoint format. A plan built
  /// from the same options over `Rng::FromState` of it resumes the exact
  /// fault stream.
  Rng::State SaveRngState() const { return rng_.SaveState(); }

 private:
  FaultPlanOptions options_;
  Rng rng_{0};
  bool enabled_ = false;
};

/// Ingestion guard: true when every figure in the sample is finite. NaN
/// telemetry must never reach the store — a single NaN poisons medians,
/// trends, and correlations downstream.
bool SampleLooksValid(const telemetry::TelemetrySample& sample);

/// \brief The telemetry-fault edge of one collection stream: the sim loop
/// and IngestProducer each keep one, so both apply a plan's faults the same
/// way. Single-threaded state (the last clean sample).
class TelemetryFaultEdge {
 public:
  /// Draws the next sample's fault from `plan` and applies it to `sample`
  /// in place, returning the fault that took effect:
  ///   * kNone    — the sample is clean and becomes the last clean one;
  ///   * kDrop    — left untouched; the caller discards it;
  ///   * kNan / kOutlier — corrupted (CorruptSample);
  ///   * kStale   — the last clean payload under the sample's own period
  ///                bounds. With no clean sample yet it reads as kNone.
  SampleFault Apply(FaultPlan* plan, telemetry::TelemetrySample* sample);

 private:
  telemetry::TelemetrySample last_clean_{};
  bool have_clean_ = false;
};

}  // namespace dbscale::fault

#endif  // DBSCALE_FAULT_FAULT_PLAN_H_
