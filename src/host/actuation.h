// The placement-aware actuation API: one request/outcome vocabulary for
// every container change, spoken by the scaler (feedback before each
// Decide), the fault actuator (fate + latency draws), and the host layer
// (fit checks, migrations, downtime billing).
//
// PR 5 introduced the two-phase engine resize (BeginResize/CompleteResize/
// AbortResize) driven by fault::ResizeActuator — one channel, local
// resizes only. This layer generalizes the channel: an ActuationRequest
// names the *kind* of change (a local resize on the tenant's current host,
// or a migration to another host when the scale-up does not fit locally),
// and the ActuationChannel ages it through the same actuator, adding the
// migration's copy latency and cutover downtime on top of whatever the
// fault plan draws. The outcome struct doubles as the scaler feedback
// (`PolicyInput.actuation`), so a policy sees pending migrations, billed
// downtime, and placement rejections through one surface.
//
// Null-plan contract: with a null fault plan and kLocalResize requests the
// channel resolves every Begin immediately (exactly the pre-host
// synchronous behavior) and draws nothing from any RNG stream.

#ifndef DBSCALE_HOST_ACTUATION_H_
#define DBSCALE_HOST_ACTUATION_H_

#include <cstdint>

#include "src/container/container.h"
#include "src/fault/actuator.h"

namespace dbscale::host {

enum class ActuationKind : uint8_t {
  kLocalResize = 0,  ///< container change in place on the current host
  kMigration = 1,    ///< move to another host (slow: latency + downtime)
};

/// Lifecycle phase reported by the channel (and fed back to the scaler).
enum class ActuationPhase : uint8_t {
  kNone,     ///< nothing in flight / nothing resolved
  kPending,  ///< in flight (actuation latency / migration copy+cutover)
  kApplied,  ///< applied at the start of this interval
  kFailed,   ///< failed transiently; retrying may succeed
  kRejected  ///< rejected permanently (or no host has capacity)
};

/// One requested container change, fully placed: what to actuate, how, and
/// (for migrations) where.
struct ActuationRequest {
  ActuationKind kind = ActuationKind::kLocalResize;
  container::ContainerSpec target;
  /// Destination host for migrations (chosen by the PlacementPolicy before
  /// Begin); -1 for local resizes.
  int host_hint = -1;
};

/// What happened to the most recent request. Doubles as the scaler's
/// per-decision feedback (`PolicyInput.actuation`): the harness reports
/// the latest transition here before each Decide.
struct ActuationOutcome {
  ActuationPhase phase = ActuationPhase::kNone;
  ActuationKind kind = ActuationKind::kLocalResize;
  /// Target of the attempt the outcome refers to.
  container::ContainerSpec target;
  /// 1-based attempt number toward that target.
  int attempt = 0;
  /// Migration endpoints (-1 for local resizes).
  int from_host = -1;
  int to_host = -1;
  /// Blackout intervals billed against the tenant by the in-flight (or
  /// just-resolved) migration so far.
  int downtime_intervals = 0;
};

/// The unified resize/migration feedback surface: PolicyInput.actuation
/// carries resize and migration feedback in one struct.
using ActuationFeedback = ActuationOutcome;

/// What the scaler may know about its tenant's placement when a host plane
/// is attached (absent = the pre-host "infinite capacity" world).
struct PlacementView {
  bool present = false;
  int host_id = -1;
  /// Per-resource headroom left on the tenant's host (capacity *
  /// overcommit - allocated - reserved).
  container::ResourceVector free;
  /// Deterministic wait-inflation factor currently applied to the host's
  /// tenants (1.0 = no interference).
  double throttle_factor = 1.0;
  /// CPU pressure at or beyond the interference knee.
  bool saturated = false;
};

/// \brief One tenant's actuation channel: wraps the fault actuator (fate +
/// latency draws) and adds migration timing. At most one request is in
/// flight; migrations spend `migration_latency_intervals` of online copy
/// followed by `migration_downtime_intervals` of blackout before applying.
class ActuationChannel {
 public:
  /// `actuator` is borrowed and must outlive the channel.
  ActuationChannel(fault::ResizeActuator* actuator,
                   int migration_latency_intervals,
                   int migration_downtime_intervals);

  /// Issues a request. Must not be called while pending(). Local resizes
  /// behave exactly like ResizeActuator::Begin; migrations add
  /// latency+downtime intervals on top of the fault plan's draw, so even a
  /// null plan leaves a migration pending. `source_host` is echoed in the
  /// outcome's from_host for migrations.
  ActuationOutcome Begin(const ActuationRequest& request,
                         int source_host = -1);

  /// Advances one billing interval; resolves due requests.
  ActuationOutcome Tick();

  bool pending() const { return actuator_->pending(); }
  const ActuationRequest& request() const { return request_; }
  /// True while the in-flight migration is inside its blackout window (the
  /// last `migration_downtime_intervals` pending intervals). The harness
  /// bills one downtime interval per in-downtime tick.
  bool in_downtime() const;

 private:
  ActuationOutcome MakeOutcome(const fault::ResizeEvent& event) const;

  fault::ResizeActuator* actuator_;
  int migration_latency_intervals_;
  int migration_downtime_intervals_;
  ActuationRequest request_;
  int source_host_ = -1;
  int downtime_billed_ = 0;
};

}  // namespace dbscale::host

#endif  // DBSCALE_HOST_ACTUATION_H_
