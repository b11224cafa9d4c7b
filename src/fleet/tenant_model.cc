#include "src/fleet/tenant_model.h"

#include <algorithm>
#include <cmath>


namespace dbscale::fleet {

using container::ResourceKind;
using container::ResourceVector;

TenantParams DrawTenantParams(const container::Catalog& catalog,
                              const TenantModelOptions& options, Rng& rng) {
  TenantParams params;

  const double pick = rng.NextDouble();
  if (pick < options.p_steady) {
    params.pattern = DemandPattern::kSteady;
  } else if (pick < options.p_steady + options.p_diurnal) {
    params.pattern = DemandPattern::kDiurnal;
  } else if (pick <
             options.p_steady + options.p_diurnal + options.p_bursty) {
    params.pattern = DemandPattern::kBursty;
  } else if (pick < options.p_steady + options.p_diurnal +
                        options.p_bursty + options.p_spiky) {
    params.pattern = DemandPattern::kSpiky;
  } else {
    params.pattern = DemandPattern::kGrowth;
  }

  // Base demand: a tenant "size" spanning the catalog (lognormal), with
  // per-resource shape factors so tenants are CPU-heavy, I/O-heavy, etc.
  const ResourceVector largest = catalog.largest().resources;
  const double size_factor =
      std::min(1.0, rng.LogNormal(/*mu=*/-3.0, /*sigma=*/1.2));
  for (ResourceKind kind : container::kAllResources) {
    const double shape = rng.LogNormal(0.0, 0.5);
    params.base_demand.Set(kind, largest.Get(kind) * size_factor * shape);
  }
  params.smooth = rng.Bernoulli(options.smooth_fraction);
  params.ar_sigma =
      options.ar_sigma * rng.LogNormal(0.0, options.ar_sigma_spread);
  params.base_rate_rps = 2.0 + params.base_demand.cpu_cores * 30.0;
  for (ResourceKind kind : container::kAllResources) {
    // Per-resource personality: how wait-prone this tenant's use of the
    // resource is (ms of wait per request at the queueing knee).
    params.wait_scale[static_cast<size_t>(kind)] = rng.LogNormal(2.0, 1.6);
  }
  return params;
}

namespace {

double PatternMultiplier(const TenantModelOptions& options,
                         const TenantParams& params, TenantDynamics& dyn,
                         Rng& rng, int t) {
  const double day_phase =
      2.0 * M_PI * static_cast<double>(t % options.intervals_per_day) /
      static_cast<double>(options.intervals_per_day);
  // AR(1) noise in log space, shared by all patterns.
  dyn.ar_state =
      options.ar_rho * dyn.ar_state + rng.Normal(0.0, params.ar_sigma);
  const double noise = std::exp(dyn.ar_state);

  switch (params.pattern) {
    case DemandPattern::kSteady:
      return noise;
    case DemandPattern::kDiurnal:
      return noise * (0.62 + 0.38 * std::sin(day_phase));
    case DemandPattern::kBursty: {
      // Two-state Markov bursts, mean on-time ~16 intervals (80 min).
      if (dyn.burst_active) {
        if (rng.Bernoulli(1.0 / 16.0)) dyn.burst_active = false;
      } else {
        if (rng.Bernoulli(1.0 / 48.0)) dyn.burst_active = true;
      }
      return noise * (dyn.burst_active ? 1.9 : 0.65);
    }
    case DemandPattern::kSpiky:
      return noise * (rng.Bernoulli(0.02) ? 2.6 : 0.7);
    case DemandPattern::kGrowth: {
      const double week_frac =
          std::min(1.0, static_cast<double>(t) /
                            (7.0 * options.intervals_per_day));
      return noise * (0.5 + week_frac);
    }
  }
  return noise;
}

double WaitPerRequestMs(const TenantModelOptions& options,
                        const TenantParams& params, Rng& rng,
                        ResourceKind kind, double util_frac,
                        double overload) {
  const double scale = params.wait_scale[static_cast<size_t>(kind)];
  // Queueing-knee growth: negligible at low utilization, steep near 1.
  const double u = std::clamp(util_frac, 0.0, 0.98);
  double wait = scale * u * u / (1.0 - u);
  // Unmet demand (demand beyond the assigned container): waits explode.
  wait *= 1.0 + 4.0 * std::max(0.0, overload - 1.0);
  if (params.smooth) wait *= 0.15;
  // Heavy-tailed measurement/interference noise.
  wait *= rng.LogNormal(0.0, options.wait_noise_sigma);
  // Wait storms unrelated to this resource's utilization (lock convoys,
  // checkpoint stalls, ...): the "large waits at low utilization" corner of
  // Figure 4.
  if (rng.Bernoulli(options.storm_probability)) {
    wait += rng.LogNormal(4.0, 1.3);
  }
  return wait;
}

}  // namespace

TenantInterval StepTenant(const container::Catalog& catalog,
                          const TenantModelOptions& options,
                          const TenantParams& params, TenantDynamics& dyn,
                          Rng& rng, int t, int applied_rung,
                          double demand_scale) {
  TenantInterval out;
  // demand_scale == 1.0 is bitwise exact (x * 1.0 == x), so the host-free
  // stream is untouched; the AR(1) recurrence inside PatternMultiplier sees
  // only its own state, so scaling cannot leak into later intervals either.
  const double multiplier =
      PatternMultiplier(options, params, dyn, rng, t) * demand_scale;
  for (ResourceKind kind : container::kAllResources) {
    out.demand.Set(kind, params.base_demand.Get(kind) * multiplier);
  }
  const container::ContainerSpec assigned =
      catalog.CheapestDominating(out.demand);
  out.assigned_rung = assigned.base_rung;
  // Utilization/waits follow the container actually applied; every RNG
  // draw below is value-independent of it, so overriding the rung cannot
  // perturb the stream.
  const container::ContainerSpec& effective =
      (applied_rung >= 0 && applied_rung != assigned.base_rung)
          ? catalog.rung(applied_rung)
          : assigned;

  const double rate_rps = std::max(0.2, params.base_rate_rps * multiplier);
  out.completed = std::max<int64_t>(1, rng.Poisson(rate_rps * 300.0));

  double total_wait = 0.0;
  for (ResourceKind kind : container::kAllResources) {
    const size_t ri = static_cast<size_t>(kind);
    const double alloc = effective.resources.Get(kind);
    const double demand = out.demand.Get(kind);
    const double util_frac =
        alloc > 0.0 ? std::min(1.0, demand / alloc) : 0.0;
    const double overload = alloc > 0.0 ? demand / alloc : 0.0;
    out.utilization_pct[ri] = 100.0 * util_frac;
    out.wait_ms[ri] =
        WaitPerRequestMs(options, params, rng, kind, util_frac, overload) *
        static_cast<double>(out.completed);
    total_wait += out.wait_ms[ri];
  }
  for (ResourceKind kind : container::kAllResources) {
    const size_t ri = static_cast<size_t>(kind);
    out.wait_pct[ri] =
        total_wait > 0.0 ? 100.0 * out.wait_ms[ri] / total_wait : 0.0;
  }
  return out;
}

}  // namespace dbscale::fleet
