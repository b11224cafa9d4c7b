// Asynchronous resize lifecycle driven by a FaultPlan.
//
// The actuation channel between a scaling decision and the engine:
// Begin(target) issues a resize whose fate and latency come from the
// FaultPlan; Tick() advances one billing interval and resolves due
// resizes. Null plans resolve every Begin immediately as kApplied, which
// is exactly the pre-fault-layer synchronous behavior.
//
// The actuator models one channel: at most one resize is in flight. It is
// shared by the DES harness (sim/simulation.cc) and the fleet model
// (fleet/fleet_sim.cc) so both layers age and resolve resizes the same way.

#ifndef DBSCALE_FAULT_ACTUATOR_H_
#define DBSCALE_FAULT_ACTUATOR_H_

#include <cstdint>

#include "src/container/catalog.h"
#include "src/fault/fault_plan.h"

namespace dbscale::fault {

/// Lifecycle state reported by Begin()/Tick().
enum class ResizeEventKind : uint8_t {
  kNone,     ///< nothing in flight / nothing resolved
  kPending,  ///< resize in flight, not yet due
  kApplied,  ///< resize completed; the caller applies the target now
  kFailed,   ///< transient failure revealed; the caller may retry
  kRejected  ///< permanent rejection, reported at Begin()
};

struct ResizeEvent {
  ResizeEventKind kind = ResizeEventKind::kNone;
  container::ContainerSpec target;
  /// 1-based attempt number toward this target (consecutive Begins for the
  /// same container id count up; a new target resets to 1).
  int attempt = 0;
};

/// \brief One-resize-at-a-time actuation channel.
class ResizeActuator {
 public:
  /// `plan` is borrowed and must outlive the actuator; a null *plan
  /// object* (default-constructed FaultPlan) gives fault-free actuation.
  explicit ResizeActuator(FaultPlan* plan);

  /// Issues a resize. Must not be called while pending(). Returns
  /// kApplied / kFailed when the draw resolves within the issuing interval
  /// (latency 0), kRejected on permanent rejection, kPending otherwise.
  /// `extra_latency_intervals` is added on top of the fault plan's latency
  /// draw (the host layer's migration copy + cutover downtime); rejection
  /// is still immediate.
  ResizeEvent Begin(const container::ContainerSpec& target,
                    int extra_latency_intervals = 0);

  /// Advances one billing interval. Returns kNone when idle, kPending
  /// while latency remains, and kApplied / kFailed when the in-flight
  /// resize resolves this interval.
  ResizeEvent Tick();

  bool pending() const { return pending_; }
  const container::ContainerSpec& target() const { return target_; }
  /// Intervals until the in-flight resize resolves (0 when idle); the host
  /// layer reads it to place the migration blackout window.
  int remaining_intervals() const { return pending_ ? remaining_intervals_ : 0; }

  /// Lifetime counters (drill-down / smoke assertions).
  uint64_t begins() const { return begins_; }
  uint64_t applied() const { return applied_; }
  uint64_t failed() const { return failed_; }
  uint64_t rejected() const { return rejected_; }

  /// \brief The channel's resumable position (fleet checkpoint format).
  /// Captures the in-flight resize and the attempt tracking; the lifetime
  /// counters above are diagnostics and intentionally excluded.
  struct State {
    bool pending = false;
    /// Catalog rung of the in-flight target (-1 when none); the catalog is
    /// config, so the spec is re-derived on restore rather than stored.
    int target_rung = -1;
    ResizeFate fate = ResizeFate::kApplied;
    int remaining_intervals = 0;
    int attempt = 0;
    int last_target_id = -1;
  };

  State SaveState() const;
  /// Restores a SaveState()d position. `catalog` must be the catalog the
  /// saved target rungs refer to.
  void RestoreState(const State& state, const container::Catalog& catalog);

 private:
  ResizeEvent Resolve();

  FaultPlan* plan_;
  bool pending_ = false;
  container::ContainerSpec target_;
  ResizeFate fate_ = ResizeFate::kApplied;
  int remaining_intervals_ = 0;
  int attempt_ = 0;
  int last_target_id_ = -1;

  uint64_t begins_ = 0;
  uint64_t applied_ = 0;
  uint64_t failed_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace dbscale::fault

#endif  // DBSCALE_FAULT_ACTUATOR_H_
