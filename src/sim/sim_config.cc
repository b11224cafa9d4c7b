#include "src/sim/sim_config.h"

namespace dbscale::sim {

SimulationOptions SimConfig::EffectiveSimulationOptions() const {
  SimulationOptions out = simulation;
  if (knobs.latency_goal.has_value()) {
    // The scaler categorizes latency in the goal's aggregate; feeding it
    // signals in a different aggregate is a classic mis-wiring.
    out.telemetry.latency_aggregate = knobs.latency_goal->aggregate;
  }
  return out;
}

Status SimConfig::Validate() const {
  DBSCALE_RETURN_IF_ERROR(knobs.Validate());
  DBSCALE_RETURN_IF_ERROR(scaler.Validate());
  DBSCALE_RETURN_IF_ERROR(simulation.workload.Validate());
  if (simulation.trace.empty()) {
    return Status::InvalidArgument("trace is empty");
  }
  if (simulation.interval_duration < simulation.sample_period) {
    return Status::InvalidArgument(
        "interval_duration must be >= sample_period");
  }
  if (simulation.initial_rung < 0 ||
      simulation.initial_rung >= simulation.catalog.num_rungs()) {
    return Status::OutOfRange("initial_rung outside the catalog");
  }
  {
    telemetry::TelemetryManager probe(
        EffectiveSimulationOptions().telemetry);
    DBSCALE_RETURN_IF_ERROR(probe.Validate());
  }
  DBSCALE_RETURN_IF_ERROR(simulation.fault.Validate());
  DBSCALE_RETURN_IF_ERROR(simulation.host.Validate());
  return Status::OK();
}

Result<std::unique_ptr<scaler::AutoScaler>> SimConfig::MakeAutoScaler()
    const {
  DBSCALE_RETURN_IF_ERROR(Validate());
  // Create() re-checks knobs and guardrail options and additionally
  // verifies budget feasibility against the catalog's price range.
  return scaler::AutoScaler::Create(simulation.catalog, knobs, scaler);
}

Result<SimConfigRun> SimConfig::Run() const {
  DBSCALE_ASSIGN_OR_RETURN(auto auto_scaler, MakeAutoScaler());
  Simulation sim(EffectiveSimulationOptions());
  DBSCALE_ASSIGN_OR_RETURN(RunResult result, sim.Run(auto_scaler.get()));
  return SimConfigRun{std::move(result), std::move(auto_scaler)};
}

}  // namespace dbscale::sim
