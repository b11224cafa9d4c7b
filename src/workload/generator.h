// Open-loop request generator (Section 7.1 of the paper).
//
// Executes a workload spec in sync with a load trace: at every trace step
// it targets the step's requests/second, issuing Poisson arrivals (the
// paper's generator "maintains the offered load as close as possible to the
// specified target"). Open-loop arrivals are what make under-provisioning
// visible: requests keep arriving while queues build, and latency explodes
// rather than throughput quietly throttling.
//
// Arrivals, step boundaries and session think times are record events
// addressed to the generator, so driving the engine allocates nothing.

#ifndef DBSCALE_WORKLOAD_GENERATOR_H_
#define DBSCALE_WORKLOAD_GENERATOR_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/engine/engine.h"
#include "src/workload/mix.h"
#include "src/workload/trace.h"

namespace dbscale::workload {

/// How trace values drive the client population.
enum class ArrivalMode {
  /// Trace value = offered requests/second, Poisson arrivals. Queues grow
  /// without bound under deep under-provisioning (modulo max_in_flight).
  kOpenLoop,
  /// Trace value = concurrent client sessions (the literal reading of the
  /// paper's Figure 8 axis). Each session issues one request at a time and
  /// re-issues on completion after a short think time, so throughput adapts
  /// to capacity and latency stays bounded near sessions/throughput.
  kClosedLoop,
};

/// Generator configuration.
struct GeneratorOptions {
  /// Simulated time that one trace step spans. The paper compresses time;
  /// 60 s/step replays a trace minute in a simulated minute, smaller values
  /// compress further.
  Duration step_duration = Duration::Seconds(20);
  /// Multiplier applied to every trace rate.
  double rate_scale = 1.0;
  /// Cap on requests in flight; arrivals beyond it are dropped (models the
  /// client connection pool limit). 0 = unlimited. Open-loop only.
  uint64_t max_in_flight = 0;
  ArrivalMode mode = ArrivalMode::kOpenLoop;
  /// Closed-loop: mean think time between a completion and the session's
  /// next request (exponential).
  Duration think_time = Duration::Millis(50);
};

/// \brief Drives a DatabaseEngine with trace-shaped Poisson arrivals.
class RequestGenerator : private engine::EventHandler {
 public:
  RequestGenerator(engine::DatabaseEngine* engine, const WorkloadSpec& spec,
                   Trace trace, GeneratorOptions options, Rng rng);
  RequestGenerator(const RequestGenerator&) = delete;
  RequestGenerator& operator=(const RequestGenerator&) = delete;

  /// Schedules the arrival process; the caller then runs the event queue.
  /// Generation stops after the last trace step.
  void Start();

  /// Simulated time at which the trace ends.
  SimTime end_time() const;

  uint64_t requests_issued() const { return requests_issued_; }
  uint64_t requests_dropped() const { return requests_dropped_; }

 private:
  enum EventKind : uint16_t {
    kArrival,
    kNextArrival,
    kAdjustSessions,
    kSessionIssue
  };

  void OnEvent(const engine::Event& event) override;
  void At(SimTime when, EventKind kind);
  void ScheduleNextArrival();
  void Arrive();
  void AdjustSessions();
  void SessionIssue();
  double CurrentRate() const;
  size_t CurrentStep() const;

  engine::DatabaseEngine* engine_;
  uint16_t handler_id_ = 0;
  WorkloadSpec spec_;
  Trace trace_;
  GeneratorOptions options_;
  Rng rng_;
  SimTime start_time_;
  bool started_ = false;
  uint64_t requests_issued_ = 0;
  uint64_t requests_dropped_ = 0;
  /// Closed-loop: sessions currently alive (issuing or thinking).
  int64_t active_sessions_ = 0;
};

}  // namespace dbscale::workload

#endif  // DBSCALE_WORKLOAD_GENERATOR_H_
