// Shared plumbing for the perfbench workloads: clocks, order statistics,
// the result report, the in-memory span log, and the ScalingPolicy
// decorator that times Decide from outside the program.
//
// Nothing here reaches into src/: every measurement is taken around a call
// into a public entry point (ScalerService, FleetScaleRunner,
// sim::Simulation, the scaler's pure functions), so the benchmark measures
// the program as shipped.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/scaler/policy.h"

namespace perfbench {

namespace container = ::dbscale::container;
namespace scaler = ::dbscale::scaler;
namespace telemetry = ::dbscale::telemetry;

/// Monotone wall clock, ns.
uint64_t WallNs();
/// CPU time of the whole process (all threads), ns. The per-layer ledger is
/// kept in CPU ns so rows measured on different threads add up.
uint64_t ProcessCpuNs();
/// Peak resident set of this process, MB.
double PeakRssMb();
/// Bytes the allocator currently hands out (heap in use).
uint64_t HeapInUseBytes();
/// Returns freed heap memory to the OS, so a discarded set-up does not
/// linger in the next one's resident set (and in peak_rss_mb).
void ReleaseFreedMemory();

/// Median of `v` (0 when empty). Takes a copy: callers keep their order.
double Median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1] (0 when empty).
double Percentile(std::vector<double> v, double q);

/// `v` per tenant-interval (0 when none ran).
inline double PerTi(double v, uint64_t tenant_intervals) {
  return tenant_intervals > 0 ? v / static_cast<double>(tenant_intervals)
                              : 0.0;
}

/// A run's throughput from its per-unit rates: the 90th percentile, i.e.
/// what the program sustains on the run's least-contended slices. On a
/// shared host the machine's speed drifts by tens of percent over seconds;
/// the median follows that drift, the fast tail much less.
double Throughput(const std::vector<double>& unit_rates);

/// Command line shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSONL); empty = nowhere.
  std::string trace_out;
};

/// \brief The run's outcome: metrics plus the attempted/failed tally and
/// the output checks. Serialized as the last stdout line.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  /// Counts `n` attempted operations.
  void Attempt(uint64_t n) { attempted_ += n; }
  /// Counts `n` failed operations (logged to stderr with `why`).
  void Fail(uint64_t n, const std::string& why);
  /// An output check: a false `ok` counts one failure and marks the run
  /// incorrect.
  void Check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double FailedFrac() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// \brief In-memory span log of a traced run, written out once at the end.
/// Times are wall ns relative to the log's creation; a span whose start is
/// not observable from outside the program (Compute inside the service's
/// prepare pass) carries only its duration.
class SpanLog {
 public:
  SpanLog();
  /// Returns the new span's id. `start_ns` is an absolute WallNs() value or
  /// 0 for "duration only".
  int64_t Add(const char* name, int64_t parent, uint64_t start_ns,
              uint64_t dur_ns, int64_t tenant = -1, int interval = -1);
  size_t size() const { return spans_.size(); }
  /// Writes one JSON object per line; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t parent;
    uint64_t start_ns;
    uint64_t dur_ns;
    int64_t tenant;
    int interval;
  };
  uint64_t origin_ns_;
  std::vector<Span> spans_;
};

/// One timed Decide call, as seen by TracedPolicy.
struct DecideRecord {
  uint64_t tenant = 0;
  int interval = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool diagonal = false;
  bool changed = false;
};

/// A decision input kept for the off-path replay of the scaler's sub-steps
/// (Categorize, DemandEstimator::Estimate, DiagonalOptimizer::Solve).
struct DecideCapture {
  telemetry::SignalSnapshot signals;
  container::ResourceVector demand;
  double goal_ms = 0.0;
  bool diagonal = false;
};

/// \brief Thread-safe sink for TracedPolicy. Decide runs on the
/// evaluation pool's threads, so appends take a mutex (uncontended in
/// practice: one Decide costs hundreds of microseconds).
class DecideLedger {
 public:
  /// Keeps every `capture_stride`-th input, at most `max_captures`.
  DecideLedger(size_t capture_stride, size_t max_captures);

  /// Toggled by the driving thread only while no Decide is running (the
  /// pool's join orders it against the workers).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void Record(const DecideRecord& record, const scaler::PolicyInput& input,
              const scaler::ScalingDecision& decision, double goal_ms);
  /// Moves out every record appended since the last call.
  std::vector<DecideRecord> TakeRecords();
  const std::vector<DecideCapture>& captures() const { return captures_; }

 private:
  bool enabled_ = false;
  size_t capture_stride_;
  size_t max_captures_;
  std::mutex mu_;
  std::vector<DecideRecord> records_;  // guarded by mu_
  std::vector<DecideCapture> captures_;  // guarded by mu_
  uint64_t seen_ = 0;  // guarded by mu_
};

/// \brief ScalingPolicy decorator: forwards to the wrapped policy and,
/// while its ledger is enabled, times the call and records it.
class TracedPolicy : public scaler::ScalingPolicy {
 public:
  TracedPolicy(std::unique_ptr<scaler::ScalingPolicy> inner,
               uint64_t tenant, bool diagonal, double goal_ms,
               DecideLedger* ledger)
      : inner_(std::move(inner)),
        tenant_(tenant),
        diagonal_(diagonal),
        goal_ms_(goal_ms),
        ledger_(ledger) {}

  scaler::ScalingDecision Decide(
      const scaler::PolicyInput& input) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<scaler::ScalingPolicy> inner_;
  uint64_t tenant_;
  bool diagonal_;
  double goal_ms_;
  DecideLedger* ledger_;
};

/// Records trace.overhead_frac (1 - traced / untraced throughput, both
/// measured in this process) and logs both rates.
void ReportTraceOverhead(double untraced_per_s, double traced_per_s,
                         Report* report);

/// Per-call cost of the scaler's sub-steps, replayed on captured inputs
/// outside the timed path.
struct ScalerReplay {
  double categorize_ns = 0.0;  ///< per Categorize call
  double estimate_ns = 0.0;    ///< per Estimate call
  double optimizer_ns = 0.0;   ///< per Solve call (diagonal captures only)
};

/// Replays Categorize + Estimate on every capture (and Solve on diagonal
/// ones, against `flexible`) with the policies' default thresholds and the
/// capture's latency goal. Per-call times are the median over `passes`.
ScalerReplay ReplayScaler(const std::vector<DecideCapture>& captures,
                          const container::Catalog* flexible, int passes);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
