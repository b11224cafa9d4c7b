// Decision audit log (Section 4 of the paper).
//
// The estimator's categorical rules make every container-sizing action
// explainable: "Scale-up due to a CPU bottleneck", "Scale-up constrained by
// budget". The paper surfaces these explanations to end-users and exposes
// the underlying signals to administrators for diagnostics. AuditLog is
// that surface: a bounded history of per-decision records — the signals
// read, the categories they mapped to, the estimate, and the action taken —
// renderable as text or CSV.
//
// Records are plain fixed-size data: the explanation is kept as its
// structured Explanation and rendered only by the ToString/ToCsv readers.
// A log holds at most its capacity of records, in storage that grows in
// fixed blocks and is overwritten in place once full, so a policy's audit
// state stops growing after that many decisions.

#ifndef DBSCALE_SCALER_AUDIT_H_
#define DBSCALE_SCALER_AUDIT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

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
  /// What it did. `resize_attempt` is the 1-based attempt number of the
  /// resize request (0 for non-resizes), updated to the final attempt count
  /// when the outcome settles.
  int16_t resize_attempt = 0;
  bool resized = false;
  /// Lifecycle outcome of the resize this decision requested (kNone for
  /// non-resize decisions; kRequested until the lifecycle settles it).
  ResizeOutcome resize_outcome = ResizeOutcome::kNone;
  container::ContainerName from_container;
  container::ContainerName to_container;
  SimTime time;
  /// What the scaler saw (the utilizations are rendered in the CSV).
  double latency_ms = 0.0;
  std::array<double, container::kNumResources> utilization_pct{};
  /// How it categorized it (`valid` is false when the decision came before
  /// a valid reading was categorized).
  CategorizedSignals categories;
  /// Why: the decision's explanation. Its `rules` hold the decision's
  /// estimate when `categories` are valid.
  Explanation explanation;

  /// What it estimated: demand steps per resource (all 0 when nothing was
  /// categorized).
  std::array<int, container::kNumResources> estimate_steps() const;

  /// Single-line rendering ("[12] S4 -> S6 | Scale-up: ...").
  std::string ToString() const;
};

static_assert(std::is_trivially_copyable_v<AuditRecord>);
// Rendered values stay doubles; the budget bounds a full log of
// AuditLog::kDefaultCapacity records at ~100 KB per policy.
static_assert(sizeof(AuditRecord) <= 200);

/// \brief Bounded decision history with render helpers.
class AuditLog {
 public:
  /// Covers the longest run any reader inspects (360 intervals).
  static constexpr size_t kDefaultCapacity = 512;

  /// Allocates nothing until the first record.
  explicit AuditLog(size_t max_records = kDefaultCapacity);

  /// Builds and appends the record for one decision, overwriting the oldest
  /// once the log is full. Resize decisions are recorded with outcome
  /// kRequested and `resize_attempt` (1 for a first attempt; retries pass
  /// their attempt number).
  void Record(const PolicyInput& input, const CategorizedSignals& cats,
              const DemandEstimate& estimate,
              const ScalingDecision& decision, int resize_attempt = 1);

  /// Settles the most recent unresolved resize request (outcome
  /// kRequested) with how the actuation channel resolved it and the final
  /// attempt count. No-op when no request is outstanding.
  void NoteResizeOutcome(ResizeOutcome outcome, int attempt);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The `i`-th oldest record held.
  const AuditRecord& at(size_t i) const { return Stored(Slot(i)); }
  const AuditRecord& back() const { return at(size() - 1); }

  /// Records where the container actually changed.
  std::vector<const AuditRecord*> Resizes() const;

  /// Text rendering of the most recent `n` records (all if n == 0).
  std::string ToString(size_t n = 0) const;

  /// CSV with one row per decision (diagnostics export).
  std::string ToCsv() const;

  void Clear();

 private:
  /// Records per storage block (1.6 KB): small enough that a tenant's
  /// first decisions cost about what their records hold, large enough that
  /// block headers and pointers add ~3 B per record.
  static constexpr size_t kBlockRecords = 8;

  /// Storage slot of the `i`-th oldest record.
  size_t Slot(size_t i) const {
    const size_t slot = head_ + i;
    return slot < size_ ? slot : slot - size_;
  }
  AuditRecord& Stored(size_t slot) {
    return blocks_[slot / kBlockRecords][slot % kBlockRecords];
  }
  const AuditRecord& Stored(size_t slot) const {
    return blocks_[slot / kBlockRecords][slot % kBlockRecords];
  }
  /// The slot for the next record: a fresh one while the log grows (adding
  /// a block when the last is full), else the oldest, overwritten.
  size_t NextSlot();

  size_t max_records_;
  /// Fixed blocks of kBlockRecords records (the last may be shorter),
  /// allocated as the log grows and never moved.
  std::vector<std::unique_ptr<AuditRecord[]>> blocks_;
  size_t size_ = 0;
  /// Slot of the oldest record once the log is full (0 until then).
  size_t head_ = 0;
};

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_AUDIT_H_
