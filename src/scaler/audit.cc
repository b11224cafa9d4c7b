#include "src/scaler/audit.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/string_util.h"

namespace dbscale::scaler {

const char* ResizeOutcomeToString(ResizeOutcome outcome) {
  switch (outcome) {
    case ResizeOutcome::kNone:
      return "none";
    case ResizeOutcome::kRequested:
      return "requested";
    case ResizeOutcome::kApplied:
      return "applied";
    case ResizeOutcome::kFailed:
      return "failed";
    case ResizeOutcome::kRejected:
      return "rejected";
    case ResizeOutcome::kAbandoned:
      return "abandoned";
  }
  return "?";
}

std::array<int, container::kNumResources> AuditRecord::estimate_steps()
    const {
  std::array<int, container::kNumResources> steps{};
  if (!categories.valid) return steps;
  for (size_t i = 0; i < steps.size(); ++i) {
    steps[i] = RuleSteps(explanation.rules[i]);
  }
  return steps;
}

std::string AuditRecord::ToString() const {
  std::string out = StrFormat("[%4d] %-4s %s %-4s | p95=%6.0fms | %s",
                              interval_index, from_container.c_str(),
                              resized ? "->" : "==", to_container.c_str(),
                              latency_ms, explanation.ToString().c_str());
  if (resize_outcome != ResizeOutcome::kNone) {
    out += StrFormat(" [resize %s, attempt %d]",
                     ResizeOutcomeToString(resize_outcome), resize_attempt);
  }
  return out;
}

AuditLog::AuditLog(size_t max_records) : max_records_(max_records) {
  DBSCALE_CHECK(max_records > 0);
}

size_t AuditLog::NextSlot() {
  if (size_ == max_records_) {
    const size_t oldest = head_;
    head_ = Slot(1);
    return oldest;
  }
  if (size_ % kBlockRecords == 0) {
    blocks_.push_back(std::make_unique<AuditRecord[]>(
        std::min(kBlockRecords, max_records_ - size_)));
  }
  return size_++;
}

// dbscale-hot: once per decision. Allocation-free once the log is full.
void AuditLog::Record(const PolicyInput& input,
                      const CategorizedSignals& cats,
                      const DemandEstimate& estimate,
                      const ScalingDecision& decision, int resize_attempt) {
  AuditRecord& record = Stored(NextSlot());
  record.interval_index = input.interval_index;
  record.resized = decision.Changed(input.current);
  record.resize_outcome =
      record.resized ? ResizeOutcome::kRequested : ResizeOutcome::kNone;
  record.resize_attempt =
      static_cast<int16_t>(record.resized ? resize_attempt : 0);
  record.from_container = container::ContainerName(input.current.name);
  record.to_container = container::ContainerName(decision.target.name);
  record.time = input.now;
  record.latency_ms = input.signals.latency_ms;
  for (container::ResourceKind kind : container::kAllResources) {
    record.utilization_pct[static_cast<size_t>(kind)] =
        input.signals.resource(kind).utilization_pct;
  }
  record.categories = cats.valid ? cats : CategorizedSignals{};
  record.explanation = decision.explanation;
  if (cats.valid) record.explanation.rules = estimate.rules;
}

// dbscale-hot: once per actuation report; settles a record in place.
void AuditLog::NoteResizeOutcome(ResizeOutcome outcome, int attempt) {
  for (size_t i = size_; i-- > 0;) {
    AuditRecord& r = Stored(Slot(i));
    if (r.resize_outcome == ResizeOutcome::kRequested) {
      r.resize_outcome = outcome;
      r.resize_attempt = static_cast<int16_t>(attempt);
      return;
    }
    if (r.resize_outcome != ResizeOutcome::kNone) {
      // The most recent resize request is already settled; the feedback is
      // stale (e.g. a duplicate report) — ignore it.
      return;
    }
  }
}

std::vector<const AuditRecord*> AuditLog::Resizes() const {
  std::vector<const AuditRecord*> out;
  for (size_t i = 0; i < size(); ++i) {
    if (at(i).resized) out.push_back(&at(i));
  }
  return out;
}

std::string AuditLog::ToString(size_t n) const {
  const size_t start = (n == 0 || n >= size()) ? 0 : size() - n;
  std::string out;
  for (size_t i = start; i < size(); ++i) {
    out += at(i).ToString() + "\n";
  }
  return out;
}

std::string AuditLog::ToCsv() const {
  std::string out =
      "interval,time_sec,latency_ms,cpu_util,mem_util,disk_util,log_util,"
      "from,to,resized,resize_outcome,resize_attempt,code,explanation\n";
  for (size_t i = 0; i < size(); ++i) {
    const AuditRecord& r = at(i);
    out += StrFormat(
        "%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%s,%s,%d,%s,%d,%s,",
        r.interval_index, r.time.ToSeconds(), r.latency_ms,
        r.utilization_pct[0], r.utilization_pct[1], r.utilization_pct[2],
        r.utilization_pct[3], r.from_container.c_str(),
        r.to_container.c_str(), r.resized ? 1 : 0,
        ResizeOutcomeToString(r.resize_outcome), r.resize_attempt,
        ExplanationCodeToken(r.explanation.code));
    CsvEscapeTo(r.explanation.ToString(), out);
    out += '\n';
  }
  return out;
}

void AuditLog::Clear() {
  blocks_.clear();
  size_ = 0;
  head_ = 0;
}

}  // namespace dbscale::scaler
