// FNV-1a over every FleetTelemetry field: the records, their order, the
// per-tenant change stats and the totals. Unlike a weighted float sum,
// equal digests mean bit-equal telemetry, so the fleet suites compare and
// pin runs through this one function.

#ifndef DBSCALE_TESTS_FLEET_TELEMETRY_DIGEST_H_
#define DBSCALE_TESTS_FLEET_TELEMETRY_DIGEST_H_

#include <cstdint>

#include "src/common/fnv.h"
#include "src/fleet/fleet_sim.h"

namespace dbscale::fleet {

inline uint64_t TelemetryDigest(const FleetTelemetry& t) {
  Fnv64Stream h;
  h.I32(t.num_tenants);
  h.I32(t.num_intervals);
  h.U64(t.hourly.size());
  for (const HourlyRecord& r : t.hourly) {
    h.I32(r.tenant_id);
    h.I32(r.hour);
    for (size_t ri = 0; ri < container::kNumResources; ++ri) {
      h.Dbl(r.utilization_pct[ri]);
      h.Dbl(r.wait_ms[ri]);
      h.Dbl(r.wait_pct[ri]);
      h.Dbl(r.wait_ms_per_request[ri]);
    }
  }
  h.U64(t.inter_event_minutes.size());
  for (const double minutes : t.inter_event_minutes) h.Dbl(minutes);
  h.U64(t.tenant_changes.size());
  for (const TenantChangeStats& c : t.tenant_changes) {
    h.I32(c.tenant_id);
    h.I32(c.num_changes);
    h.Dbl(c.changes_per_day);
  }
  h.U64(t.step_size_counts.size());
  for (const int64_t count : t.step_size_counts) {
    h.U64(static_cast<uint64_t>(count));
  }
  h.U64(t.resize_failures);
  h.U64(t.resize_retries);
  return h.value;
}

}  // namespace dbscale::fleet

#endif  // DBSCALE_TESTS_FLEET_TELEMETRY_DIGEST_H_
