// Versioned binary checkpoint format for the fleet scale runner.
//
// Layout (little-endian, not portable across endianness):
//
//   u64  magic      "DBSCFCK1"
//   u32  version    kFleetCheckpointVersion
//   u64  fingerprint  FleetScaleFingerprint of the writing run
//   i32  completed_intervals
//   i32  num_tenants
//   u8   act_enabled   (fault plan OR host plane: actuation arrays present)
//   u8   host_enabled  (v2: host arrays + per-host states present)
//   i32  num_hosts     (v2: 0 when the host plane is disabled)
//   i32  num_blocks
//   i32  num_rungs, i32 num_intervals      (aggregate shape)
//   <SoA arrays>       each as u64 length + raw element bytes
//   <host states>      per host: alloc + reserved (4 dbl each), i32
//                      num_tenants, dbl cpu_pressure, dbl throttle; then
//                      the six u64 host counters (host mode only)
//   <block aggregates> in block order, scalars + length-prefixed vectors
//   u64  footer     FNV-1a over every byte above
//
// Every read is bounds-checked, and the header counts are checked against
// the bytes that follow before anything is sized from them; truncation,
// corruption (footer mismatch), a wrong magic/version, or a fingerprint
// from a run with different options all produce a clean Status error —
// never UB, never a crash, never a partial resume. Writes go to `path + ".tmp"` and rename into place so a crash
// mid-write cannot leave a torn checkpoint at `path`.

#ifndef DBSCALE_FLEET_CHECKPOINT_H_
#define DBSCALE_FLEET_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/fleet/fleet_aggregate.h"
#include "src/fleet/fleet_scale.h"

namespace dbscale::fleet {

inline constexpr uint64_t kFleetCheckpointMagic = 0x314B434643534244ULL;
/// v2 adds the host plane: a host_enabled flag, the host-residency SoA
/// arrays, and the per-host accounting states + counters. v1 checkpoints
/// are rejected (the SoA layout around them changed too).
inline constexpr uint32_t kFleetCheckpointVersion = 2;

/// Everything a resume needs (tenant constants are re-derived from the
/// seed, not stored).
struct FleetCheckpointData {
  int completed_intervals = 0;
  FleetSoaState state;
  std::vector<FleetAggregate> block_aggs;
  /// Host plane (empty / zero when it was disabled in the writing run).
  std::vector<host::HostState> hosts;
  host::HostMap::Counters host_counters;
};

/// `host_map` must be non-null exactly when `state.host_sized()`.
[[nodiscard]] Status SaveFleetCheckpoint(
    const std::string& path, uint64_t fingerprint, int completed_intervals,
    const FleetSoaState& state,
    const std::vector<FleetAggregate>& block_aggs,
    const host::HostMap* host_map = nullptr);

/// Fails with IoError on truncation/corruption and FailedPrecondition on
/// a magic/version/fingerprint mismatch.
[[nodiscard]] Result<FleetCheckpointData> LoadFleetCheckpoint(
    const std::string& path, uint64_t expected_fingerprint);

}  // namespace dbscale::fleet

#endif  // DBSCALE_FLEET_CHECKPOINT_H_
