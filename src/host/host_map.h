// The host plane: N simulated machines with finite capacity, tenants
// bin-packed onto them, and the accounting that turns "scale up" into
// "migrate" when the bigger container does not fit locally.
//
// Everything here is deterministic bookkeeping — no RNG, no time. Hosts
// are identified by dense index and every iteration walks them in index
// order, so the digest (and any placement choice derived from the map) is
// bit-identical across runs and thread counts. The harness owning the map
// is responsible for mutating it from a serial phase (or in a fixed tenant
// order); the map itself is not thread-safe.
//
// Accounting model: per host, `alloc` is the sum of resident containers'
// resource bundles and `reserved` is capacity promised to in-flight
// actuations (the up-delta of a pending local resize, the full target
// bundle of an incoming migration). FitsOn admits a placement when
// alloc + reserved + extra <= capacity * overcommit_factor in every
// dimension — overcommit is what lets a host saturate and the
// interference model below bite.
//
// Interference: allocation alone cannot oversubscribe (FitsOn forbids it),
// so saturation is driven by *demand pressure* — the harness feeds each
// host the sum of its residents' CPU demand (clamped to their containers)
// from the previous interval, and the map turns pressure beyond
// `interference_start_ratio` into a wait-inflation throttle factor shared
// by every tenant on the host.

#ifndef DBSCALE_HOST_HOST_MAP_H_
#define DBSCALE_HOST_HOST_MAP_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/container/container.h"
#include "src/fault/actuator.h"

namespace dbscale::host {

/// Which heuristic picks the destination host for a migration. Seed
/// placement is always first-fit-decreasing; the policy governs scale-ups
/// that must move.
enum class PlacementPolicyKind : uint8_t {
  kFirstFit = 0,  ///< lowest-index host with room
  kBestFit = 1,   ///< tightest CPU headroom after placement
  kWorstFit = 2,  ///< loosest CPU headroom after placement
};

const char* PlacementPolicyKindToString(PlacementPolicyKind kind);

/// \brief The host plane's configuration. `num_hosts == 0` disables the
/// layer entirely (the pre-host "infinite capacity" world): no map is
/// built, no digest is folded, and runs stay bit-identical to pre-host
/// baselines.
struct HostOptions {
  int num_hosts = 0;
  /// Per-host capacity in the catalog's resource units.
  container::ResourceVector capacity{16.0, 65536.0, 20000.0, 400.0};
  /// FitsOn admits up to capacity * overcommit_factor per dimension; > 1
  /// lets demand pressure exceed capacity and interference kick in.
  double overcommit_factor = 1.0;
  /// Online copy intervals a migration spends before its blackout window;
  /// at least 1, so a migration bills exactly its downtime intervals.
  int migration_latency_intervals = 1;
  /// Blackout (downtime) intervals at the end of a migration.
  int migration_downtime_intervals = 1;
  /// Wait inflation applied to a tenant's samples during its own
  /// migration blackout.
  double migration_downtime_wait_factor = 8.0;
  /// CPU pressure (demand / capacity) where interference starts.
  double interference_start_ratio = 0.75;
  /// Throttle slope: throttle = 1 + slope * max(0, pressure - start).
  double interference_slope = 4.0;
  PlacementPolicyKind placement = PlacementPolicyKind::kFirstFit;
  /// Non-tenant load pre-placed on every host (OS, agents, system DBs);
  /// counts toward both allocation and demand pressure.
  container::ResourceVector background;
  /// Additional background on hosts [0, hot_hosts): deliberately skewed
  /// machines (legacy workloads, system tenants). The skew is what lets a
  /// scale-up fail to fit locally while an identical-capacity peer has
  /// room — i.e. what makes migrations reachable even for a lone tenant.
  int hot_hosts = 0;
  container::ResourceVector hot_extra;

  bool enabled() const { return num_hosts > 0; }

  Status Validate() const;
};

/// Per-dimension max(0, new - old): the extra capacity a local resize
/// needs on its host.
container::ResourceVector UpDelta(const container::ResourceVector& old_bundle,
                                  const container::ResourceVector& new_bundle);

/// \brief One host's accounting state. Plain data; saved verbatim into
/// fleet checkpoints.
struct HostState {
  /// Sum of resident containers' bundles (plus background).
  container::ResourceVector alloc;
  /// Capacity promised to in-flight actuations.
  container::ResourceVector reserved;
  int32_t num_tenants = 0;
  /// Previous interval's CPU demand pressure (demand / capacity).
  double cpu_pressure = 0.0;
  /// Wait-inflation factor derived from cpu_pressure.
  double throttle = 1.0;
};

/// \brief The fleet-to-host assignment plus per-host accounting.
class HostMap {
 public:
  explicit HostMap(const HostOptions& options);

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  const HostOptions& options() const { return options_; }
  const std::vector<HostState>& hosts() const { return hosts_; }
  const HostState& host(int id) const { return hosts_[static_cast<size_t>(id)]; }

  /// First-fit-decreasing seed placement: tenants sorted by container
  /// price descending (ties by index ascending), each placed on the
  /// lowest-index host with room. Returns host-of-tenant, or
  /// ResourceExhausted naming the first tenant that fits nowhere.
  Result<std::vector<int>> SeedPlace(
      const std::vector<container::ContainerSpec>& containers);

  /// True when `extra` fits on `id` next to current alloc + reserved under
  /// capacity * overcommit_factor.
  bool FitsOn(int id, const container::ResourceVector& extra) const;
  /// Per-resource headroom left on `id` (overcommitted capacity - alloc -
  /// reserved), clamped at 0.
  container::ResourceVector FreeOn(int id) const;

  // -- Residency ----------------------------------------------------------
  void Place(int id, const container::ResourceVector& bundle);
  void Remove(int id, const container::ResourceVector& bundle);

  // -- Local resize --------------------------------------------------------
  // While a local resize is in flight, its up-delta (per-dimension
  // max(0, new - old)) is reserved so concurrent placements cannot claim
  // the capacity it needs. Commit releases the reservation and swaps the
  // resident bundle old -> new (shrinking dimensions included).
  void ReserveLocal(int id, const container::ResourceVector& up_delta);
  void CommitLocal(int id, const container::ResourceVector& up_delta,
                   const container::ResourceVector& old_bundle,
                   const container::ResourceVector& new_bundle);
  void AbortLocal(int id, const container::ResourceVector& up_delta);

  // -- Migration (reserve the full target bundle on the destination) ------
  void BeginMigration(int dest, const container::ResourceVector& target);
  /// Cutover: the tenant leaves `source` with its old bundle and lands on
  /// `dest` with the new one.
  void CompleteMigration(int source, int dest,
                         const container::ResourceVector& old_bundle,
                         const container::ResourceVector& new_bundle);
  /// Failed migration: the destination reservation is released; the source
  /// accounting was never touched.
  void AbortMigration(int dest, const container::ResourceVector& target);

  // -- Resolved requests ---------------------------------------------------
  /// Books a resolved actuation of a tenant resident on `host` with bundle
  /// `from` (`dest`: the migration's destination): an applied migration
  /// completes and an applied local resize commits; a failed migration or
  /// local resize releases its reservation. Any other phase books nothing.
  /// Returns the tenant's host afterwards.
  int Settle(const fault::ActuationOutcome& outcome, int host, int dest,
             const container::ResourceVector& from);

  // -- Interference -------------------------------------------------------
  /// Folds the previous interval's per-host resident CPU demand (already
  /// clamped per tenant to its container) into pressure + throttle, host
  /// by host in index order. Bumps the saturated-host-interval counter for
  /// every host whose pressure exceeds 1.0.
  void UpdateInterference(const std::vector<double>& resident_demand_cpu);
  double throttle(int id) const { return hosts_[static_cast<size_t>(id)].throttle; }
  double cpu_pressure(int id) const {
    return hosts_[static_cast<size_t>(id)].cpu_pressure;
  }
  /// True once `id`'s pressure is at or beyond the interference knee.
  bool saturated(int id) const {
    return hosts_[static_cast<size_t>(id)].cpu_pressure >=
           options_.interference_start_ratio;
  }

  // -- Counters -----------------------------------------------------------
  struct Counters {
    uint64_t migrations_begun = 0;
    uint64_t migrations_completed = 0;
    uint64_t migrations_failed = 0;
    uint64_t downtime_intervals = 0;
    uint64_t saturated_host_intervals = 0;
    uint64_t placement_holds = 0;
  };
  const Counters& counters() const { return counters_; }
  /// One migration blackout interval billed against a tenant.
  void AddDowntimeInterval() { ++counters_.downtime_intervals; }
  /// A scale-up held because no host (local or remote) had capacity.
  void AddPlacementHold() { ++counters_.placement_holds; }

  /// FNV-1a over every host's accounting in index order, then the
  /// counters: the host plane's contribution to run digests.
  uint64_t Digest() const;

  // -- Checkpoint support -------------------------------------------------
  void RestoreHost(int id, const HostState& state) {
    hosts_[static_cast<size_t>(id)] = state;
  }
  void RestoreCounters(const Counters& counters) { counters_ = counters; }

 private:
  HostOptions options_;
  container::ResourceVector limit_;  // capacity * overcommit_factor
  std::vector<HostState> hosts_;
  Counters counters_;
};

}  // namespace dbscale::host

#endif  // DBSCALE_HOST_HOST_MAP_H_
