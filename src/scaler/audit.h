// Decision audit log (Section 4 of the paper).
//
// The estimator's categorical rules make every container-sizing action
// explainable: "Scale-up due to a CPU bottleneck", "Scale-up constrained by
// budget". The paper surfaces these explanations to end-users and exposes
// the underlying signals to administrators for diagnostics. AuditLog is
// that surface: a bounded history of per-decision records — the signals
// read, the categories they mapped to, the estimate, and the action taken —
// renderable as text or CSV.

#ifndef DBSCALE_SCALER_AUDIT_H_
#define DBSCALE_SCALER_AUDIT_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/scaler/categories.h"
#include "src/scaler/demand_estimator.h"
#include "src/scaler/policy.h"

namespace dbscale::scaler {

/// How a requested resize resolved on the actuation channel. Requests are
/// recorded kRequested and settled in place by NoteResizeOutcome() when
/// the lifecycle reports back; kNone marks non-resize decisions.
enum class ResizeOutcome : uint8_t {
  kNone,       ///< decision did not change the container
  kRequested,  ///< issued; outcome not yet reported
  kApplied,    ///< actuation succeeded
  kFailed,     ///< transient failure (a retry may follow)
  kRejected,   ///< permanent rejection
  kAbandoned   ///< failed and retry budget exhausted
};

const char* ResizeOutcomeToString(ResizeOutcome outcome);

/// One decision's full story.
struct AuditRecord {
  int interval_index = 0;
  SimTime time;
  /// What the scaler saw.
  double latency_ms = 0.0;
  std::array<double, container::kNumResources> utilization_pct{};
  std::array<double, container::kNumResources> wait_ms_per_request{};
  /// How it categorized it (`valid` is false when the decision came before
  /// a valid reading was categorized).
  CategorizedSignals categories;
  /// What it estimated: demand steps per resource (all 0 when nothing was
  /// categorized).
  std::array<int, container::kNumResources> estimate_steps{};
  /// What it did.
  std::string from_container;
  std::string to_container;
  bool resized = false;
  /// Lifecycle outcome of the resize this decision requested (kNone for
  /// non-resize decisions; kRequested until the lifecycle settles it).
  ResizeOutcome resize_outcome = ResizeOutcome::kNone;
  /// 1-based attempt number of the resize request (0 for non-resizes);
  /// updated to the final attempt count when the outcome settles.
  int resize_attempt = 0;
  /// Stable machine-readable reason for the decision.
  ExplanationCode code = ExplanationCode::kUnset;
  /// Rendered Explanation::ToString() text of the decision.
  std::string explanation;

  /// Single-line rendering ("[12] S4 -> S6 | Scale-up: ...").
  std::string ToString() const;
};

/// \brief Bounded decision history with render helpers.
class AuditLog {
 public:
  explicit AuditLog(size_t max_records = 4096);

  /// Builds and appends the record for one decision. Resize decisions are
  /// recorded with outcome kRequested and `resize_attempt` (1 for a first
  /// attempt; retries pass their attempt number).
  void Record(const PolicyInput& input, const CategorizedSignals& cats,
              const DemandEstimate& estimate,
              const ScalingDecision& decision, int resize_attempt = 1);

  /// Settles the most recent unresolved resize request (outcome
  /// kRequested) with how the actuation channel resolved it and the final
  /// attempt count. No-op when no request is outstanding.
  void NoteResizeOutcome(ResizeOutcome outcome, int attempt);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const AuditRecord& at(size_t i) const { return records_[i]; }
  const AuditRecord& back() const { return records_.back(); }

  /// Records where the container actually changed.
  std::vector<const AuditRecord*> Resizes() const;

  /// Text rendering of the most recent `n` records (all if n == 0).
  std::string ToString(size_t n = 0) const;

  /// CSV with one row per decision (diagnostics export).
  std::string ToCsv() const;

  void Clear();

 private:
  size_t max_records_;
  std::deque<AuditRecord> records_;
};

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_AUDIT_H_
