// TelemetryStore: the per-tenant history of telemetry samples that the
// telemetry manager reads. Bounded retention (circular ring over a flat
// vector) since signals only look back a few hours at most. The backing
// vector grows lazily up to the retention bound and is then recycled in
// place, so steady-state Append is allocation-free.

#ifndef DBSCALE_TELEMETRY_STORE_H_
#define DBSCALE_TELEMETRY_STORE_H_

#include <vector>

#include "src/telemetry/sample.h"

namespace dbscale::telemetry {

/// \brief Append-only bounded history of TelemetrySamples.
class TelemetryStore {
 public:
  /// \param max_samples retention; oldest samples are evicted beyond this.
  explicit TelemetryStore(size_t max_samples = 4096);

  void Append(TelemetrySample sample);
  void Clear();

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const TelemetrySample& back() const {
    return samples_[Phys(samples_.size() - 1)];
  }
  /// Logical index: 0 is the oldest retained sample, size()-1 the newest.
  const TelemetrySample& at(size_t i) const { return samples_[Phys(i)]; }

  /// The most recent `n` samples (fewer if not available), oldest first,
  /// into a caller-provided buffer (cleared first); no allocation beyond
  /// buffer growth.
  void RecentInto(size_t n, std::vector<const TelemetrySample*>& out) const;

 private:
  /// Physical slot of logical index `i` (0 = oldest). Until the ring is
  /// full head_ is 0 and logical == physical; afterwards the ring wraps.
  size_t Phys(size_t i) const {
    const size_t p = head_ + i;
    return p < samples_.size() ? p : p - samples_.size();
  }

  size_t max_samples_;
  std::vector<TelemetrySample> samples_;
  size_t head_ = 0;  ///< physical slot of the oldest sample once full
};

}  // namespace dbscale::telemetry

#endif  // DBSCALE_TELEMETRY_STORE_H_
