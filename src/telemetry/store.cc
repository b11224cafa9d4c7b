#include "src/telemetry/store.h"

#include <utility>

#include "src/common/check.h"

namespace dbscale::telemetry {

TelemetryStore::TelemetryStore(size_t max_samples)
    : max_samples_(max_samples) {
  DBSCALE_CHECK(max_samples > 0);
}

// dbscale-hot: runs once per telemetry sample for every tenant. Grows the
// backing vector only until retention is reached; at capacity it recycles
// the oldest slot in place (no allocation, no element shifting).
void TelemetryStore::Append(TelemetrySample sample) {
  if (!samples_.empty()) {
    // Periods must be appended in time order.
    DBSCALE_DCHECK(sample.period_end >= back().period_end);
  }
  if (samples_.size() < max_samples_) {
    samples_.push_back(std::move(sample));
  } else {
    samples_[head_] = std::move(sample);
    ++head_;
    if (head_ == samples_.size()) head_ = 0;
  }
}

void TelemetryStore::Clear() {
  samples_.clear();
  head_ = 0;
}

// dbscale-hot: per-decision window extraction; fills caller scratch.
void TelemetryStore::RecentInto(
    size_t n, std::vector<const TelemetrySample*>& out) const {
  out.clear();
  size_t start = samples_.size() > n ? samples_.size() - n : 0;
  for (size_t i = start; i < samples_.size(); ++i) {
    out.push_back(&samples_[Phys(i)]);
  }
}

}  // namespace dbscale::telemetry
