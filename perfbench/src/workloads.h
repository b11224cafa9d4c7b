// The four benchmark workloads. Each runs in its own process: set-up
// (repeated, median reported), an untraced measured phase, and in a traced
// run a second measured phase with the per-layer ledger switched on.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Set-ups per run (setup_s is their median): more where one set-up is
/// short, fewer where it is several seconds of simulation.
inline constexpr int kSetupRepeats = 5;
inline constexpr int kSimSetupRepeats = 3;

/// ScalerService fed through IngestProducer -> IngestRing: 4096 Auto
/// tenants with aligned 12-sample billing boundaries.
void RunSvcBoundary(const Args& args, Report* report);
/// The same path with 256 staggered tenants, 720 samples per decision,
/// half Auto on fixed rungs and half Diagonal on a flexible catalog.
void RunSvcHourly(const Args& args, Report* report);
/// FleetScaleRunner with the host plane and a migration-forcing flash crowd.
void RunFleetFlash(const Args& args, Report* report);
/// sim::Simulation with Auto over the paper's Fig. 9 and Fig. 10 pairings.
void RunSimPaper(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
