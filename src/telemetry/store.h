// TelemetryStore: the per-tenant history of telemetry samples that the
// telemetry manager reads. Bounded retention (circular ring over a flat
// vector) since signals only look back a few hours at most. The backing
// vector grows lazily up to the retention bound and is then recycled in
// place, so steady-state Append is allocation-free.
//
// A stored sample is a SampleRow: the fields TelemetryManager::Compute
// reads and nothing else (152 B against TelemetrySample's 216 B). The
// allocation, which Compute reads from the newest sample only, is kept
// once per store.

#ifndef DBSCALE_TELEMETRY_STORE_H_
#define DBSCALE_TELEMETRY_STORE_H_

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/sim_time.h"
#include "src/container/container.h"
#include "src/telemetry/sample.h"
#include "src/telemetry/wait_class.h"

namespace dbscale::telemetry {

/// \brief One stored sampling period: the part of a TelemetrySample the
/// signal windows read, under the same field names, plus the derived
/// quantities the windows use.
struct SampleRow {
  SimTime period_start;
  SimTime period_end;
  std::array<double, container::kNumResources> utilization_pct{};
  std::array<double, kNumWaitClasses> wait_ms{};
  int64_t requests_completed = 0;
  double latency_avg_ms = 0.0;
  double latency_p95_ms = 0.0;
  double memory_used_mb = 0.0;
  int64_t physical_reads = 0;

  double duration_sec() const {
    return (period_end - period_start).ToSeconds();
  }
  double throughput_rps() const {
    double sec = duration_sec();
    return sec > 0 ? static_cast<double>(requests_completed) / sec : 0.0;
  }
  double total_wait_ms() const {
    double total = 0.0;
    for (double w : wait_ms) total += w;
    return total;
  }
};

static_assert(std::is_trivially_copyable_v<SampleRow>,
              "store slots are recycled by plain assignment");
static_assert(sizeof(SampleRow) <= 152, "a store row is at most 152 B");

/// \brief Append-only bounded history of SampleRows.
class TelemetryStore {
 public:
  /// \param max_samples retention; oldest samples are evicted beyond this.
  explicit TelemetryStore(size_t max_samples = 4096);

  /// Appends `sample`'s row and makes its allocation the newest.
  void Append(const TelemetrySample& sample);
  /// Appends a row for the caller to fill in place and returns it (no
  /// temporary sample). The caller sets every field, since a recycled row
  /// keeps its old values, and keeps periods in time order. `allocation`
  /// is the container allocation in effect at the end of the row's period.
  SampleRow& AppendRow(const container::ResourceVector& allocation);
  void Clear();

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const SampleRow& back() const { return rows_[Phys(rows_.size() - 1)]; }
  /// Logical index: 0 is the oldest retained sample, size()-1 the newest.
  const SampleRow& at(size_t i) const { return rows_[Phys(i)]; }
  /// Container allocation in effect at the end of the newest sample.
  const container::ResourceVector& allocation() const { return allocation_; }

  /// The most recent `n` samples (fewer if not available), oldest first,
  /// into a caller-provided buffer (cleared first); no allocation beyond
  /// buffer growth.
  void RecentInto(size_t n, std::vector<const SampleRow*>& out) const;

 private:
  /// Physical slot of logical index `i` (0 = oldest). Until the ring is
  /// full head_ is 0 and logical == physical; afterwards the ring wraps.
  size_t Phys(size_t i) const {
    const size_t p = head_ + i;
    return p < rows_.size() ? p : p - rows_.size();
  }

  size_t max_samples_;
  std::vector<SampleRow> rows_;
  size_t head_ = 0;  ///< physical slot of the oldest sample once full
  container::ResourceVector allocation_;
};

}  // namespace dbscale::telemetry

#endif  // DBSCALE_TELEMETRY_STORE_H_
