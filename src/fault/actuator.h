// The actuation channel between a scaling decision and the container.
//
// One vocabulary for every container change, spoken by the harnesses (the
// sim loop, the fleet's block and host loops), the scaler (feedback before
// each Decide) and the host plane (HostMap::Settle books a resolved
// outcome). Begin(target, kind) issues a local resize or a migration whose
// fate and latency come from the FaultPlan; Tick() advances one billing
// interval and resolves a due request. A migration spends the host plane's
// copy latency and then its blackout (downtime) on top of the plan's
// latency draw, so even a null plan leaves it pending; a rejection is
// always reported at Begin. Null plans resolve every local Begin
// immediately as kApplied, which is exactly the pre-fault-layer
// synchronous behavior, and draw nothing from any RNG stream.
//
// The actuator models one channel: at most one request is in flight.

#ifndef DBSCALE_FAULT_ACTUATOR_H_
#define DBSCALE_FAULT_ACTUATOR_H_

#include <cstdint>

#include "src/container/catalog.h"
#include "src/fault/fault_plan.h"

namespace dbscale::fault {

enum class ActuationKind : uint8_t {
  kLocalResize = 0,  ///< container change in place on the current host
  kMigration = 1,    ///< move to another host (slow: latency + downtime)
};

/// Lifecycle phase reported by Begin()/Tick() (and fed back to the scaler).
enum class ActuationPhase : uint8_t {
  kNone,     ///< nothing in flight / nothing resolved
  kPending,  ///< in flight (actuation latency / migration copy+cutover)
  kApplied,  ///< applied at the start of this interval
  kFailed,   ///< failed transiently; retrying may succeed
  kRejected  ///< rejected permanently (or no host has capacity)
};

/// What happened to the most recent request. Doubles as the scaler's
/// per-decision feedback (`PolicyInput.actuation`): the harness reports
/// the latest transition there before each Decide.
struct ActuationOutcome {
  ActuationPhase phase = ActuationPhase::kNone;
  ActuationKind kind = ActuationKind::kLocalResize;
  /// Target of the attempt the outcome refers to.
  container::ContainerSpec target;
  /// 1-based attempt number toward that target (consecutive Begins for the
  /// same container id count up; a new target resets to 1).
  int attempt = 0;
  /// Blackout intervals billed against the tenant by the in-flight (or
  /// just-resolved) migration so far.
  int downtime_intervals = 0;
};

/// \brief One-request-at-a-time actuation channel.
class ResizeActuator {
 public:
  /// `plan` is borrowed and must outlive the actuator; a null *plan
  /// object* (default-constructed FaultPlan) gives fault-free actuation.
  /// The two migration spans are the host plane's HostOptions values.
  explicit ResizeActuator(FaultPlan* plan, int migration_latency_intervals = 0,
                          int migration_downtime_intervals = 0);

  /// Issues a request. Must not be called while pending(). Returns
  /// kApplied / kFailed when the draw resolves within the issuing interval
  /// (latency 0), kRejected on permanent rejection, kPending otherwise. A
  /// migration adds latency + downtime intervals to the plan's draw.
  ActuationOutcome Begin(const container::ContainerSpec& target,
                         ActuationKind kind = ActuationKind::kLocalResize);

  /// Advances one billing interval. Returns kNone when idle, kPending
  /// while latency remains, and kApplied / kFailed when the in-flight
  /// request resolves this interval.
  ActuationOutcome Tick();

  bool pending() const { return pending_; }
  /// True while the in-flight migration is inside its blackout window (the
  /// last `migration_downtime_intervals` pending intervals). The harness
  /// bills one downtime interval per such interval.
  bool in_downtime() const {
    return pending_ && kind_ == ActuationKind::kMigration &&
           remaining_intervals_ <= migration_downtime_intervals_;
  }

  /// \brief The channel's resumable position (fleet checkpoint format).
  /// Captures the in-flight request and the attempt tracking; the billed
  /// downtime count is feedback only and is not part of it.
  struct State {
    bool pending = false;
    /// Catalog rung of the in-flight target (-1 when none); the catalog is
    /// config, so the spec is re-derived on restore rather than stored.
    int target_rung = -1;
    ResizeFate fate = ResizeFate::kApplied;
    int remaining_intervals = 0;
    int attempt = 0;
    int last_target_id = -1;
    /// Kind of the in-flight request; kLocalResize whenever idle.
    ActuationKind kind = ActuationKind::kLocalResize;
  };

  State SaveState() const;
  /// Restores a SaveState()d position. `catalog` must be the catalog the
  /// saved target rungs refer to.
  void RestoreState(const State& state, const container::Catalog& catalog);

 private:
  ActuationOutcome Outcome(ActuationPhase phase) const {
    return ActuationOutcome{phase, kind_, target_, attempt_, downtime_billed_};
  }
  ActuationOutcome Resolve();

  FaultPlan* plan_;
  int migration_latency_intervals_;
  int migration_downtime_intervals_;
  bool pending_ = false;
  ActuationKind kind_ = ActuationKind::kLocalResize;
  container::ContainerSpec target_;
  ResizeFate fate_ = ResizeFate::kApplied;
  int remaining_intervals_ = 0;
  int attempt_ = 0;
  int last_target_id_ = -1;
  int downtime_billed_ = 0;
};

}  // namespace dbscale::fault

#endif  // DBSCALE_FAULT_ACTUATOR_H_
