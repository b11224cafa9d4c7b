#include "src/fleet/fleet_sim.h"

#include "src/fleet/fleet_scale.h"

namespace dbscale::fleet {

double FleetTelemetry::OneStepFraction() const {
  return StepFractionAtOrBelow(step_size_counts, 1);
}

double FleetTelemetry::AtMostTwoStepFraction() const {
  return StepFractionAtOrBelow(step_size_counts, 2);
}

FleetSimulator::FleetSimulator(const container::Catalog& catalog,
                               FleetOptions options)
    : catalog_(catalog), options_(options) {}

Result<FleetTelemetry> FleetSimulator::Run() const {
  // One epoch covering the whole run (rounded up to an hour, as epochs must
  // be): each block emits tenant by tenant, so concatenating the blocks'
  // records in block order gives the tenant-major layout. The runner
  // validates the options.
  FleetScaleOptions scale;
  scale.num_tenants = options_.num_tenants;
  scale.num_intervals = options_.num_intervals;
  scale.seed = options_.seed;
  scale.num_threads = options_.num_threads;
  scale.block_size = options_.block_size;
  scale.epoch_intervals = (options_.num_intervals + kIntervalsPerHour - 1) /
                          kIntervalsPerHour * kIntervalsPerHour;
  scale.tenant = options_.tenant;
  scale.fault = options_.fault;
  scale.obs = options_.obs;
  std::vector<FleetBlockRecords> blocks;
  DBSCALE_ASSIGN_OR_RETURN(FleetScaleOutcome outcome,
                           FleetScaleRunner(catalog_, scale).Run(&blocks));

  FleetTelemetry out;
  out.num_tenants = options_.num_tenants;
  out.num_intervals = options_.num_intervals;
  size_t hourly_total = 0, iei_total = 0;
  for (const FleetBlockRecords& block : blocks) {
    hourly_total += block.hourly.size();
    iei_total += block.inter_event_minutes.size();
  }
  out.hourly.reserve(hourly_total);
  out.inter_event_minutes.reserve(iei_total);
  out.tenant_changes.reserve(static_cast<size_t>(options_.num_tenants));
  for (const FleetBlockRecords& block : blocks) {
    out.hourly.insert(out.hourly.end(), block.hourly.begin(),
                      block.hourly.end());
    out.inter_event_minutes.insert(out.inter_event_minutes.end(),
                                   block.inter_event_minutes.begin(),
                                   block.inter_event_minutes.end());
    out.tenant_changes.insert(out.tenant_changes.end(),
                              block.tenant_changes.begin(),
                              block.tenant_changes.end());
  }
  const FleetAggregate& agg = outcome.aggregate;
  out.step_size_counts.assign(agg.step_size_counts.begin(),
                              agg.step_size_counts.end());
  out.resize_failures = agg.resize_failures;
  out.resize_retries = agg.resize_retries;
  return out;
}

}  // namespace dbscale::fleet
