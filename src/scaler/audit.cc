#include "src/scaler/audit.h"

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

std::string AuditRecord::ToString() const {
  std::string out = StrFormat("[%4d] %-4s %s %-4s | p95=%6.0fms | %s",
                              interval_index, from_container.c_str(),
                              resized ? "->" : "==", to_container.c_str(),
                              latency_ms, explanation.c_str());
  if (resize_outcome != ResizeOutcome::kNone) {
    out += StrFormat(" [resize %s, attempt %d]",
                     ResizeOutcomeToString(resize_outcome), resize_attempt);
  }
  return out;
}

AuditLog::AuditLog(size_t max_records) : max_records_(max_records) {
  DBSCALE_CHECK(max_records > 0);
}

void AuditLog::Record(const PolicyInput& input,
                      const CategorizedSignals& cats,
                      const DemandEstimate& estimate,
                      const ScalingDecision& decision, int resize_attempt) {
  AuditRecord record;
  record.interval_index = input.interval_index;
  record.time = input.now;
  record.latency_ms = input.signals.latency_ms;
  for (container::ResourceKind kind : container::kAllResources) {
    const size_t ri = static_cast<size_t>(kind);
    record.utilization_pct[ri] =
        input.signals.resource(kind).utilization_pct;
    record.wait_ms_per_request[ri] =
        input.signals.resource(kind).wait_ms_per_request;
    if (cats.valid) record.estimate_steps[ri] = estimate.For(kind).steps;
  }
  if (cats.valid) record.categories = cats;
  record.from_container = input.current.name;
  record.to_container = decision.target.name;
  record.resized = decision.Changed(input.current);
  if (record.resized) {
    record.resize_outcome = ResizeOutcome::kRequested;
    record.resize_attempt = resize_attempt;
  }
  record.code = decision.explanation.code;
  record.explanation = decision.explanation.ToString();

  records_.push_back(std::move(record));
  while (records_.size() > max_records_) records_.pop_front();
}

void AuditLog::NoteResizeOutcome(ResizeOutcome outcome, int attempt) {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->resize_outcome == ResizeOutcome::kRequested) {
      it->resize_outcome = outcome;
      it->resize_attempt = attempt;
      return;
    }
    if (it->resize_outcome != ResizeOutcome::kNone) {
      // The most recent resize request is already settled; the feedback is
      // stale (e.g. a duplicate report) — ignore it.
      return;
    }
  }
}

std::vector<const AuditRecord*> AuditLog::Resizes() const {
  std::vector<const AuditRecord*> out;
  for (const AuditRecord& r : records_) {
    if (r.resized) out.push_back(&r);
  }
  return out;
}

std::string AuditLog::ToString(size_t n) const {
  const size_t start =
      (n == 0 || n >= records_.size()) ? 0 : records_.size() - n;
  std::string out;
  for (size_t i = start; i < records_.size(); ++i) {
    out += records_[i].ToString() + "\n";
  }
  return out;
}

std::string AuditLog::ToCsv() const {
  std::string out =
      "interval,time_sec,latency_ms,cpu_util,mem_util,disk_util,log_util,"
      "from,to,resized,resize_outcome,resize_attempt,code,explanation\n";
  for (const AuditRecord& r : records_) {
    out += StrFormat(
        "%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%s,%s,%d,%s,%d,%s,",
        r.interval_index, r.time.ToSeconds(), r.latency_ms,
        r.utilization_pct[0], r.utilization_pct[1], r.utilization_pct[2],
        r.utilization_pct[3], r.from_container.c_str(),
        r.to_container.c_str(), r.resized ? 1 : 0,
        ResizeOutcomeToString(r.resize_outcome), r.resize_attempt,
        ExplanationCodeToken(r.code));
    CsvEscapeTo(r.explanation, out);
    out += '\n';
  }
  return out;
}

void AuditLog::Clear() { records_.clear(); }

}  // namespace dbscale::scaler
