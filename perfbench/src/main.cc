// perfbench: one end-to-end run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints progress and check results on stderr and, as the last stdout
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits non-zero when an output check failed or the arguments are bad.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0' || args->seconds < 1) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  perfbench::Report report;
  if (args.workload == "svc-boundary") {
    perfbench::RunSvcBoundary(args, &report);
  } else if (args.workload == "svc-hourly") {
    perfbench::RunSvcHourly(args, &report);
  } else if (args.workload == "fleet-flash") {
    perfbench::RunFleetFlash(args, &report);
  } else if (args.workload == "sim-paper") {
    perfbench::RunSimPaper(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    report.Metric("failed_frac", report.FailedFrac(), "ratio");
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
