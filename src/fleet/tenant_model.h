// Analytic per-tenant demand/telemetry model for the fleet simulator.
//
// The paper calibrates its wait thresholds and motivates auto-scaling from
// *service-wide* telemetry: thousands of tenants observed at 5-minute
// granularity over a week (Sections 2.2 and 4.1, Figures 2, 4 and 6). The
// full DES engine is far too heavy for thousands of tenants, and the
// analyses only consume aggregate statistics, so the fleet layer uses a
// closed-form model per tenant-interval:
//
//   * demand: a per-tenant base scale (lognormal across the catalog range)
//     modulated by a pattern (steady / diurnal / bursty / spiky / growth)
//     with AR(1) noise — giving the frequent container-boundary crossings
//     of Figure 2;
//   * waits: queueing-flavoured growth with utilization, u/(1-u), times
//     heavy-tailed lognormal noise, plus occasional wait storms unrelated
//     to utilization and a per-tenant "smooth" factor — reproducing the
//     weak, wide-band correlation of Figure 4 and the low/high-utilization
//     separation of Figure 6.
//
// The model state is split for the SoA fleet runner (fleet_scale.h):
// TenantParams holds the constants drawn once at init, TenantDynamics the
// two mutable scalars the step recurrence carries, and the Rng its own
// position. DrawTenantParams and StepTenant are the kernels.

#ifndef DBSCALE_FLEET_TENANT_MODEL_H_
#define DBSCALE_FLEET_TENANT_MODEL_H_

#include <array>

#include "src/common/rng.h"
#include "src/container/catalog.h"

namespace dbscale::fleet {

/// Demand shape over time.
enum class DemandPattern { kSteady, kDiurnal, kBursty, kSpiky, kGrowth };

/// Telemetry produced by one tenant for one 5-minute interval.
struct TenantInterval {
  /// Demand in absolute units (cores, MB, IOPS, MB/s).
  container::ResourceVector demand;
  /// Smallest container rung covering the demand.
  int assigned_rung = 0;
  /// Utilization of the assigned container (percent, capped at 100).
  std::array<double, container::kNumResources> utilization_pct{};
  /// Total wait ms in the interval, per resource dimension.
  std::array<double, container::kNumResources> wait_ms{};
  /// Wait share per resource (percent of the interval's total waits).
  std::array<double, container::kNumResources> wait_pct{};
  /// Requests completed in the interval.
  int64_t completed = 0;
};

/// Model parameters (defaults tuned to reproduce the paper's fleet
/// statistics; see bench_fig02/fig04/fig06).
struct TenantModelOptions {
  /// Pattern mix (must sum to ~1).
  double p_steady = 0.38;
  double p_diurnal = 0.28;
  double p_bursty = 0.16;
  double p_spiky = 0.08;
  double p_growth = 0.10;
  /// AR(1) noise persistence and innovation sigma (log space). The sigma
  /// is a fleet median; per-tenant volatility is lognormal around it
  /// (ar_sigma_spread), giving the paper's heterogeneity: some tenants
  /// never cross a container boundary, others cross dozens of times a day.
  double ar_rho = 0.95;
  double ar_sigma = 0.02;
  double ar_sigma_spread = 1.4;
  /// Wait-model noise sigma (log space) and storm probability.
  double wait_noise_sigma = 1.3;
  double storm_probability = 0.06;
  /// Fraction of tenants whose workload queues little even when busy.
  double smooth_fraction = 0.35;
  /// Intervals per day (5-minute intervals).
  int intervals_per_day = 288;
};

/// Per-tenant constants, drawn once from the tenant's forked generator.
/// Read every interval but never written after init — the SoA runner keeps
/// one contiguous array of these beside the hot mutable state.
struct TenantParams {
  DemandPattern pattern = DemandPattern::kSteady;
  container::ResourceVector base_demand;
  double ar_sigma = 0.1;  ///< per-tenant innovation sigma
  bool smooth = false;
  double base_rate_rps = 1.0;
  /// Per-resource wait-scale personality.
  std::array<double, container::kNumResources> wait_scale{};
};

/// The mutable per-interval recurrence state (besides the Rng position).
struct TenantDynamics {
  double ar_state = 0.0;
  bool burst_active = false;
};

/// Draws a tenant's constants from its generator (a fixed draw sequence:
/// the pinned fleet digests depend on it).
TenantParams DrawTenantParams(const container::Catalog& catalog,
                              const TenantModelOptions& options, Rng& rng);

/// Generates telemetry for interval `t` (call with increasing t; `dyn`
/// carries the AR/burst state). `applied_rung` >= 0 overrides the container
/// the tenant actually runs on (the fault layer's delayed/failed resizes
/// leave it lagging the assigned rung); utilization and waits then follow
/// the applied container while demand and the RNG draw sequence stay
/// exactly as without the override. `demand_scale` multiplies the demand
/// multiplier (flash-crowd injection); 1.0 is bitwise identical to not
/// passing it, and the RNG draw sequence never depends on it.
TenantInterval StepTenant(const container::Catalog& catalog,
                          const TenantModelOptions& options,
                          const TenantParams& params, TenantDynamics& dyn,
                          Rng& rng, int t, int applied_rung = -1,
                          double demand_scale = 1.0);

}  // namespace dbscale::fleet

#endif  // DBSCALE_FLEET_TENANT_MODEL_H_
