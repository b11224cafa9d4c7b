// svc-boundary and svc-hourly: the scaler as a service, end to end.
//
// Closed loop on one driving thread: each step generates one sample per
// tenant, publishes the step through IngestProducer into the IngestRing,
// then calls ScalerService::DrainOnce until the ring is empty. Decisions
// run inside DrainOnce on a ThreadPool(2). The next step starts only after
// the drain, so every sample follows the container the service chose last
// (CurrentContainer) and decisions have consequences for cost and latency.
//
// Telemetry: demand comes from fleet::StepTenant (the fleet's 5-minute
// demand model). Utilization, waits and latency follow from that demand
// and the tenant's current allocation through the queueing model in
// FillSample below, which is also what goal_miss_frac is judged by.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/thread_pool.h"
#include "src/container/catalog.h"
#include "src/fleet/tenant_model.h"
#include "src/ingest/ingest_ring.h"
#include "src/ingest/producer.h"
#include "src/ingest/scaler_service.h"
#include "src/ingest/wire_sample.h"
#include "src/scaler/autoscaler.h"
#include "src/scaler/diagonal.h"
#include "src/scaler/thresholds.h"
#include "src/telemetry/wait_class.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fleet = ::dbscale::fleet;
namespace ingest = ::dbscale::ingest;
using ::dbscale::Rng;
using ::dbscale::SimTime;
using ::dbscale::ThreadPool;

struct SvcShape {
  const char* name;
  int tenants;
  /// Samples per billing interval (= per decision).
  int samples_per_interval;
  /// Samples per fleet-model step: 1 when a sample is a 5-minute period,
  /// 60 when samples are 5 seconds under the 5-minute demand model.
  int samples_per_model_step;
  int64_t sample_period_us;
  /// Stagger tenants' first sample so boundaries spread over the interval.
  bool staggered;
  /// Odd tenants run DiagonalScaler on a flexible catalog.
  bool half_diagonal;
  /// Warm-up intervals after the stagger; 2 x 12 samples fill the 24-sample
  /// trend and correlation windows.
  int warm_intervals;
  /// Timed units (one interval of every tenant each) that the deterministic
  /// cost and goal-miss figures cover.
  int det_units;
  /// Every n-th tenant (from tenant 0 and 1) is replayed serially through
  /// OfferDirect to check the service digest.
  int digest_subset_every;
};

constexpr SvcShape kBoundary{"svc-boundary", 4096, 12, 1, 300'000'000, false,
                             false, 2, 8, 512};
// 2048 tenants rather than a cache-resident few hundred: LLC-resident state
// made throughput swing with the host's other tenants, and a small
// population made goal misses swing with the seed.
constexpr SvcShape kHourly{"svc-hourly", 2048, 720, 60, 5'000'000, true,
                           true, 1, 8, 1024};

// --- Generator latency model ------------------------------------------------

/// Latency floor per request, ms (no queueing).
constexpr double kBaseLatencyMs = 4.0;
constexpr double kP95OverAvg = 2.5;
/// Every tenant's goal: p95 latency at most this, ms.
constexpr double kGoalP95Ms = 200.0;
/// Utilization above which the queueing factor stops growing (the rest of
/// the overload shows as failed requests and stretched latency).
constexpr double kUtilCap = 0.95;
/// q(u) = u / (1 - u) at u = 0.7: per-resource waits reach Auto's HIGH wait
/// threshold at the 70% utilization its HIGH utilization bar uses.
constexpr double kQueueAtHigh = 0.7 / 0.3;

constexpr std::array<telemetry::WaitClass, container::kNumResources>
    kWaitClassOf = {telemetry::WaitClass::kCpu, telemetry::WaitClass::kMemory,
                    telemetry::WaitClass::kDiskIo, telemetry::WaitClass::kLogIo};

/// Per-request wait (ms) at q = 1 for each resource.
std::array<double, container::kNumResources> WaitUnits() {
  const scaler::SignalThresholds t = scaler::SignalThresholds::Default();
  std::array<double, container::kNumResources> out{};
  for (container::ResourceKind kind : container::kAllResources) {
    out[static_cast<size_t>(kind)] =
        t.For(kind).wait_high_ms_per_req / kQueueAtHigh;
  }
  return out;
}

/// Fills one sample from demand against the allocation in effect. Returns
/// the sample's p95 latency; `*failed` is set when demand exceeded the
/// allocation and requests were shed.
double FillSample(const container::ResourceVector& demand,
                  const container::ContainerSpec& current, double requests,
                  const std::array<double, container::kNumResources>& wait_ms_per_q,
                  int64_t start_us, int64_t end_us,
                  telemetry::TelemetrySample* s, bool* failed) {
  s->period_start = SimTime::FromMicros(start_us);
  s->period_end = SimTime::FromMicros(end_us);
  s->wait_ms.fill(0.0);
  double overload = 0.0;
  double wait_per_request = 0.0;
  std::array<double, container::kNumResources> per_request{};
  for (container::ResourceKind kind : container::kAllResources) {
    const size_t r = static_cast<size_t>(kind);
    const double alloc = current.resources.Get(kind);
    const double u = alloc > 0.0 ? demand.Get(kind) / alloc : 0.0;
    overload = std::max(overload, u);
    const double ue = std::min(u, kUtilCap);
    s->utilization_pct[r] = 100.0 * std::min(u, 1.0);
    per_request[r] = wait_ms_per_q[r] * ue / (1.0 - ue);
    wait_per_request += per_request[r];
  }
  const int64_t started = std::max<int64_t>(1, std::llround(requests));
  int64_t completed = started;
  double latency_avg = kBaseLatencyMs + wait_per_request;
  if (overload > 1.0) {
    completed = static_cast<int64_t>(static_cast<double>(started) / overload);
    latency_avg *= overload;
  }
  *failed = completed < started;
  for (size_t r = 0; r < container::kNumResources; ++r) {
    s->wait_ms[static_cast<size_t>(kWaitClassOf[r])] =
        per_request[r] * static_cast<double>(completed);
  }
  s->requests_started = started;
  s->requests_completed = completed;
  s->latency_avg_ms = latency_avg;
  s->latency_p95_ms = kP95OverAvg * latency_avg;
  s->latency_max_ms = 2.0 * s->latency_p95_ms;
  const double mem_alloc = current.resources.memory_mb;
  s->memory_active_mb = std::min(demand.memory_mb, mem_alloc);
  s->memory_used_mb = mem_alloc;
  const double mem_u = mem_alloc > 0.0 ? demand.memory_mb / mem_alloc : 0.0;
  s->physical_reads = static_cast<int64_t>(
      static_cast<double>(completed) * 0.05 * std::max(0.0, mem_u - 0.5));
  s->allocation = current.resources;
  s->container_id = current.id;
  return s->latency_p95_ms;
}

/// One generated tenant: its fleet-model state plus the interval being
/// accumulated for cost and goal accounting.
struct GenTenant {
  uint64_t id = 0;
  bool diagonal = false;
  int start_step = 0;
  fleet::TenantParams params;
  fleet::TenantDynamics dyn;
  Rng model_rng{0};
  Rng jitter_rng{0};
  std::array<double, container::kNumResources> wait_ms_per_q{};
  container::ResourceVector demand;
  double rate_rps = 0.0;
  const container::ContainerSpec* current = nullptr;  // owned by the service
  int64_t k = 0;  // samples generated so far
  double price = 0.0;
  double p95_sum = 0.0;
  bool failed = false;
  uint64_t close_publish_ns = 0;
  bool in_digest_subset = false;
};

/// Samples buffered for one step.
struct StepSample {
  size_t tenant;
  bool closing;
  telemetry::TelemetrySample sample;
};

/// Totals of one measured phase.
struct Phase {
  std::vector<double> unit_rates;  // decisions per wall second, per unit
  uint64_t decisions = 0;
  // Traced-only ledger, summed over the phase.
  uint64_t cpu_ns = 0;
  uint64_t generate_ns = 0;
  uint64_t publish_ns = 0;
  int64_t drain_rest_ns = 0;
  uint64_t eval_ns = 0;  // compute + decide, per the service's timer
  uint64_t decide_auto_ns = 0;
  uint64_t decide_diag_ns = 0;
  uint64_t diag_decisions = 0;
  uint64_t changed = 0;
  uint64_t routed = 0;
  uint64_t eval_rounds = 0;
  uint64_t unpaired = 0;
  std::vector<double> staleness_ms;
  std::vector<double> wait_ms;
  std::vector<double> compute_us;
  std::vector<double> decide_us;
};

template <typename T>
T Unwrap(::dbscale::Result<T> result) {
  DBSCALE_CHECK_OK(result.status());
  return std::move(result).value();
}

bool g_service_timer_on = false;

/// The service's injected timer: live only during a traced phase.
uint64_t ServiceTimer() { return g_service_timer_on ? WallNs() : 0; }

class SvcBench {
 public:
  SvcBench(const SvcShape& shape, uint64_t seed, bool hooks);

  /// Runs the stagger and warm-up steps (part of set-up).
  void WarmUp();
  /// Measures whole units until `seconds` have passed and at least
  /// `min_units` ran; the first `det_units` units feed the deterministic
  /// cost / goal figures.
  Phase Measure(int seconds, bool traced, int min_units, int det_units);
  /// End-of-run output checks.
  void Verify(Report* report);

  const DecideLedger* ledger() const { return ledger_.get(); }
  const container::Catalog& flexible() const { return flexible_; }
  uint64_t det_intervals() const { return det_intervals_; }
  uint64_t det_misses() const { return det_misses_; }
  double det_cost() const { return det_cost_; }
  uint64_t ring_depth_max() const { return ring_depth_max_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t invalid() const { return service_->counters().invalid; }
  const SpanLog& spans() const { return spans_; }

 private:
  std::unique_ptr<scaler::ScalingPolicy> MakeBarePolicy(
      const GenTenant& t) const;
  /// The bare policy, wrapped in a TracedPolicy when hooks are on.
  std::unique_ptr<scaler::ScalingPolicy> MakePolicy(const GenTenant& t) const;
  void Step(bool traced, bool count_det, Phase* phase);
  void Drain(bool traced, Phase* phase);
  void FeedShadow();

  const SvcShape shape_;
  const bool hooks_;
  container::Catalog lockstep_ = container::Catalog::MakeLockStep();
  container::Catalog flexible_;
  fleet::TenantModelOptions model_options_;
  scaler::TenantKnobs knobs_;
  std::unique_ptr<DecideLedger> ledger_;
  std::vector<uint64_t> latency_sink_;
  ingest::IngestRing ring_{ingest::IngestRingOptions{.capacity = 1 << 16}};
  ThreadPool pool_{2};
  std::unique_ptr<ingest::ScalerService> service_;
  std::unique_ptr<ingest::ScalerService> shadow_;
  ingest::IngestProducer producer_{&ring_, 0};
  std::vector<GenTenant> tenants_;
  std::vector<StepSample> step_;
  std::vector<ingest::WireSample> shadow_pending_;
  uint64_t shadow_seq_ = 0;
  int64_t global_step_ = 0;
  uint64_t expected_decisions_ = 0;
  uint64_t published_ = 0;
  uint64_t rejected_ = 0;
  uint64_t ring_depth_max_ = 0;
  uint64_t det_intervals_ = 0;
  uint64_t det_misses_ = 0;
  double det_cost_ = 0.0;
  SpanLog spans_;
};

SvcBench::SvcBench(const SvcShape& shape, uint64_t seed, bool hooks)
    : shape_(shape),
      hooks_(hooks),
      flexible_(Unwrap(container::Catalog::MakeFlexible(
          container::FlexibleCatalogOptions{.subdivisions = 1}))) {
  knobs_.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, kGoalP95Ms};
  if (hooks_) {
    ledger_ = std::make_unique<DecideLedger>(
        /*capture_stride=*/std::max(1, shape_.tenants / 256),
        /*max_captures=*/4096);
    latency_sink_.reserve(static_cast<size_t>(shape_.tenants) + 1024);
  }

  ingest::ScalerServiceOptions options;
  options.store_retention = 64;
  options.samples_per_interval = static_cast<size_t>(shape_.samples_per_interval);
  options.max_drain_batch = 1024;
  ingest::ScalerServiceOptions shadow_options = options;
  if (hooks_) {
    options.timer = &ServiceTimer;
    options.decision_latency_sink = &latency_sink_;
  }
  service_ = std::make_unique<ingest::ScalerService>(&ring_, options, &pool_);
  shadow_ = std::make_unique<ingest::ScalerService>(nullptr, shadow_options);

  const std::array<double, container::kNumResources> units = WaitUnits();
  Rng root(seed);
  tenants_.resize(static_cast<size_t>(shape_.tenants));
  for (int i = 0; i < shape_.tenants; ++i) {
    GenTenant& t = tenants_[static_cast<size_t>(i)];
    t.id = static_cast<uint64_t>(i) + 1;
    t.diagonal = shape_.half_diagonal && (i % 2 == 1);
    t.start_step = shape_.staggered
                       ? static_cast<int>(static_cast<int64_t>(i) *
                                          shape_.samples_per_interval /
                                          shape_.tenants)
                       : 0;
    t.model_rng = root.Fork();
    t.jitter_rng = root.Fork();
    t.params = fleet::DrawTenantParams(lockstep_, model_options_, t.model_rng);
    for (size_t r = 0; r < container::kNumResources; ++r) {
      // Per-tenant wait personality from the fleet model, kept within 2x.
      const double personality =
          std::clamp(t.params.wait_scale[r] / std::exp(2.0), 0.5, 2.0);
      t.wait_ms_per_q[r] = units[r] * personality;
    }
    t.in_digest_subset = i % shape_.digest_subset_every <= 1;
    const container::Catalog& catalog = t.diagonal ? flexible_ : lockstep_;
    const container::ContainerSpec initial =
        catalog.CheapestDominating(t.params.base_demand.Scaled(1.25));
    DBSCALE_CHECK_OK(service_->AddTenant(t.id, MakePolicy(t), initial));
    t.current = service_->CurrentContainer(t.id);
    if (t.in_digest_subset) {
      // The reference runs the bare policy: no decorator, no timer.
      DBSCALE_CHECK_OK(shadow_->AddTenant(t.id, MakeBarePolicy(t), initial));
    }
  }
  step_.reserve(tenants_.size());
}

std::unique_ptr<scaler::ScalingPolicy> SvcBench::MakeBarePolicy(
    const GenTenant& t) const {
  if (t.diagonal) return Unwrap(scaler::DiagonalScaler::Create(flexible_, knobs_));
  return Unwrap(scaler::AutoScaler::Create(lockstep_, knobs_));
}

std::unique_ptr<scaler::ScalingPolicy> SvcBench::MakePolicy(
    const GenTenant& t) const {
  if (!hooks_) return MakeBarePolicy(t);
  return std::make_unique<TracedPolicy>(MakeBarePolicy(t), t.id, t.diagonal,
                                        kGoalP95Ms, ledger_.get());
}

void SvcBench::WarmUp() {
  const int stagger = shape_.staggered ? shape_.samples_per_interval : 0;
  const int steps = stagger + shape_.warm_intervals * shape_.samples_per_interval;
  Phase unused;
  for (int s = 0; s < steps; ++s) Step(false, false, &unused);
  FeedShadow();
}

void SvcBench::Step(bool traced, bool count_det, Phase* phase) {
  const int64_t s = global_step_++;
  const int spi = shape_.samples_per_interval;
  const double period_s = static_cast<double>(shape_.sample_period_us) / 1e6;

  const uint64_t t0 = traced ? WallNs() : 0;
  step_.clear();
  for (size_t i = 0; i < tenants_.size(); ++i) {
    GenTenant& t = tenants_[i];
    if (s < t.start_step) continue;
    if (t.k % shape_.samples_per_model_step == 0) {
      const fleet::TenantInterval step = fleet::StepTenant(
          lockstep_, model_options_, t.params, t.dyn, t.model_rng,
          static_cast<int>(t.k / shape_.samples_per_model_step));
      t.demand = step.demand;
      t.rate_rps = static_cast<double>(step.completed) / 300.0;
    }
    const int phase_k = static_cast<int>(t.k % spi);
    if (phase_k == 0) {
      t.price = t.current->price_per_interval;
      t.p95_sum = 0.0;
      t.failed = false;
    }
    const double jitter = t.jitter_rng.LogNormal(0.0, 0.05);
    StepSample& out = step_.emplace_back();
    out.tenant = i;
    out.closing = phase_k == spi - 1;
    bool failed = false;
    t.p95_sum += FillSample(t.demand.Scaled(jitter), *t.current,
                            t.rate_rps * period_s * jitter, t.wait_ms_per_q,
                            s * shape_.sample_period_us,
                            (s + 1) * shape_.sample_period_us, &out.sample,
                            &failed);
    t.failed = t.failed || failed;
    if (t.in_digest_subset) {
      ingest::WireSample wire = ingest::MakeWireSample(t.id, out.sample);
      wire.producer_seq = shadow_seq_++;
      shadow_pending_.push_back(wire);
    }
    if (out.closing) {
      ++expected_decisions_;
      if (count_det) {
        ++det_intervals_;
        det_cost_ += t.price;
        if (t.failed || t.p95_sum / spi > kGoalP95Ms) ++det_misses_;
      }
    }
    ++t.k;
  }
  const uint64_t t1 = traced ? WallNs() : 0;
  for (const StepSample& out : step_) {
    GenTenant& t = tenants_[out.tenant];
    if (traced && out.closing) t.close_publish_ns = WallNs();
    if (producer_.Publish(t.id, out.sample) ==
        ingest::PublishOutcome::kPublished) {
      ++published_;
    } else {
      ++rejected_;
    }
  }
  if (traced) {
    const uint64_t t2 = WallNs();
    phase->generate_ns += t1 - t0;
    phase->publish_ns += t2 - t1;
    spans_.Add("bench.generate", -1, t0, t1 - t0);
    spans_.Add("ingest.publish", -1, t1, t2 - t1);
  }
  Drain(traced, phase);
}

void SvcBench::Drain(bool traced, Phase* phase) {
  const ingest::IngestCounters& c = service_->counters();
  while (ring_.ApproxDepth() > 0) {
    ring_depth_max_ = std::max<uint64_t>(ring_depth_max_, ring_.ApproxDepth());
    // Holds this drain's timer samples only (a hooked service appends zero
    // samples while untraced, too).
    latency_sink_.clear();
    if (!traced) {
      service_->DrainOnce();
      continue;
    }
    const uint64_t rounds0 = c.eval_rounds;
    const uint64_t routed0 = c.routed;
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t w0 = WallNs();
    service_->DrainOnce();
    const uint64_t w1 = WallNs();
    const uint64_t cpu1 = ProcessCpuNs();
    const uint64_t rounds = c.eval_rounds - rounds0;
    phase->eval_rounds += rounds;
    phase->routed += c.routed - routed0;

    uint64_t eval = 0;
    for (uint64_t ns : latency_sink_) eval += ns;
    phase->eval_ns += eval;
    phase->drain_rest_ns +=
        static_cast<int64_t>(cpu1 - cpu0) - static_cast<int64_t>(eval);
    const int64_t drain_span = spans_.Add("ingest.drain", -1, w0, w1 - w0);

    std::vector<DecideRecord> records = ledger_->TakeRecords();
    for (const DecideRecord& rec : records) {
      const uint64_t dur = rec.end_ns - rec.start_ns;
      (rec.diagonal ? phase->decide_diag_ns : phase->decide_auto_ns) += dur;
      if (rec.diagonal) ++phase->diag_decisions;
      if (rec.changed) ++phase->changed;
      phase->decide_us.push_back(static_cast<double>(dur) / 1e3);
    }
    // The service appends one timer sample per decision in (round, tenant
    // id) order; with a single evaluation round that is tenant-id order,
    // which pairs each sample with its decorated Decide.
    if (rounds != 1 || records.size() != latency_sink_.size()) {
      phase->unpaired += records.size();
      continue;
    }
    std::sort(records.begin(), records.end(),
              [](const DecideRecord& a, const DecideRecord& b) {
                return a.tenant < b.tenant;
              });
    for (size_t i = 0; i < records.size(); ++i) {
      const DecideRecord& rec = records[i];
      const GenTenant& t = tenants_[rec.tenant - 1];
      const uint64_t decide = rec.end_ns - rec.start_ns;
      const uint64_t compute =
          latency_sink_[i] > decide ? latency_sink_[i] - decide : 0;
      const uint64_t staleness = rec.end_ns - t.close_publish_ns;
      phase->compute_us.push_back(static_cast<double>(compute) / 1e3);
      phase->staleness_ms.push_back(static_cast<double>(staleness) / 1e6);
      phase->wait_ms.push_back(
          static_cast<double>(staleness) / 1e6 -
          static_cast<double>(latency_sink_[i]) / 1e6);
      const int64_t span =
          spans_.Add("decision", drain_span, t.close_publish_ns, staleness,
                     static_cast<int64_t>(rec.tenant), rec.interval);
      spans_.Add("telemetry.compute", span, 0, compute,
                 static_cast<int64_t>(rec.tenant), rec.interval);
      spans_.Add("scaler.decide", span, rec.start_ns, decide,
                 static_cast<int64_t>(rec.tenant), rec.interval);
    }
  }
}

void SvcBench::FeedShadow() {
  for (const ingest::WireSample& wire : shadow_pending_) {
    shadow_->OfferDirect(wire);
  }
  shadow_pending_.clear();
}

Phase SvcBench::Measure(int seconds, bool traced, int min_units,
                        int det_units) {
  Phase phase;
  if (ledger_ != nullptr) ledger_->set_enabled(traced);
  g_service_timer_on = traced;
  const uint64_t start = WallNs();
  for (int unit = 0;; ++unit) {
    const uint64_t decisions0 = service_->counters().decisions;
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t w0 = WallNs();
    for (int s = 0; s < shape_.samples_per_interval; ++s) {
      Step(traced, unit < det_units, &phase);
    }
    const uint64_t w1 = WallNs();
    const uint64_t cpu1 = ProcessCpuNs();
    const uint64_t decisions = service_->counters().decisions - decisions0;
    phase.decisions += decisions;
    phase.cpu_ns += cpu1 - cpu0;
    phase.unit_rates.push_back(static_cast<double>(decisions) /
                               (static_cast<double>(w1 - w0) / 1e9));
    // The serial reference replay is not part of the measured path.
    FeedShadow();
    if (unit + 1 >= min_units &&
        WallNs() - start >= static_cast<uint64_t>(seconds) * 1000000000ull) {
      break;
    }
  }
  g_service_timer_on = false;
  if (ledger_ != nullptr) ledger_->set_enabled(false);
  return phase;
}

void SvcBench::Verify(Report* report) {
  FeedShadow();
  const ingest::IngestCounters& c = service_->counters();
  report->Attempt(expected_decisions_);
  report->Fail(rejected_, "ring rejections");
  report->Fail(c.invalid, "samples rejected as invalid");
  report->Fail(c.unknown_tenant, "samples for unknown tenants");
  report->Fail(c.out_of_order, "out-of-order samples");
  report->Fail(c.seq_violations, "producer sequence violations");
  report->Fail(expected_decisions_ > c.decisions
                   ? expected_decisions_ - c.decisions
                   : 0,
               "missing decisions");
  report->Check(c.decisions == expected_decisions_,
                "decisions == tenants x intervals");
  report->Check(c.routed == published_ && published_ == producer_.published(),
                "samples routed == published");
  int compared = 0;
  for (const GenTenant& t : tenants_) {
    if (!t.in_digest_subset) continue;
    ++compared;
    report->Check(service_->TenantDigest(t.id) == shadow_->TenantDigest(t.id) &&
                      service_->IntervalIndex(t.id) ==
                          shadow_->IntervalIndex(t.id),
                  "tenant " + std::to_string(t.id) +
                      " digest matches the serial OfferDirect replay");
  }
  report->Check(compared > 0, "digest subset is not empty");
  std::fprintf(stderr,
               "perfbench: %s service digest %016llx, %d tenants compared "
               "with the serial replay\n",
               shape_.name,
               static_cast<unsigned long long>(service_->Digest()), compared);
}

void RunSvc(const SvcShape& shape, const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<SvcBench> bench;
  double state_bytes_per_tenant = 0.0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    bench.reset();
    ReleaseFreedMemory();
    const uint64_t heap0 = HeapInUseBytes();
    const uint64_t t0 = WallNs();
    bench = std::make_unique<SvcBench>(shape, args.seed, args.trace);
    bench->WarmUp();
    setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
    state_bytes_per_tenant =
        static_cast<double>(HeapInUseBytes() - heap0) / shape.tenants;
  }

  const Phase plain =
      bench->Measure(args.seconds, false, shape.det_units, shape.det_units);
  const double rate = Throughput(plain.unit_rates);
  const double miss =
      PerTi(static_cast<double>(bench->det_misses()), bench->det_intervals());
  const double cost = PerTi(bench->det_cost(), bench->det_intervals());

  if (!args.trace) {
    bench->Verify(report);
    report->Metric("tenant_intervals_per_s", rate, "1/s");
    report->Metric("goal_miss_frac", miss, "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("setup_s", Median(setup_s), "s");
    std::fprintf(stderr,
                 "perfbench: %s cost_per_tenant_interval %.4f over %llu "
                 "tenant-intervals\n",
                 shape.name, cost,
                 static_cast<unsigned long long>(bench->det_intervals()));
    return;
  }

  const Phase traced = bench->Measure(args.seconds, true, 1, 0);
  bench->Verify(report);
  const uint64_t ti = traced.decisions;
  const ScalerReplay replay = ReplayScaler(
      bench->ledger()->captures(),
      shape.half_diagonal ? &bench->flexible() : nullptr, /*passes=*/5);

  const double total = PerTi(static_cast<double>(traced.cpu_ns), ti);
  const double generate = PerTi(static_cast<double>(traced.generate_ns), ti);
  const double publish = PerTi(static_cast<double>(traced.publish_ns), ti);
  const double drain = PerTi(static_cast<double>(traced.drain_rest_ns), ti);
  const double decide_auto =
      PerTi(static_cast<double>(traced.decide_auto_ns), ti);
  const double decide_diag =
      PerTi(static_cast<double>(traced.decide_diag_ns), ti);
  const double compute =
      PerTi(static_cast<double>(traced.eval_ns), ti) - decide_auto - decide_diag;
  const double optimizer =
      replay.optimizer_ns * PerTi(static_cast<double>(traced.diag_decisions), ti);

  report->Metric("decision_staleness_p50_ms", Percentile(traced.staleness_ms, 0.50), "ms");
  report->Metric("decision_staleness_p99_ms", Percentile(traced.staleness_ms, 0.99), "ms");
  report->Metric("cost_per_tenant_interval", cost, "price");
  report->Metric("ingest.publish_ns", publish, "ns");
  report->Metric("ingest.drain_ns", drain, "ns");
  report->Metric("ingest.samples_routed", PerTi(static_cast<double>(traced.routed), ti), "count");
  report->Metric("ingest.eval_rounds", PerTi(static_cast<double>(traced.eval_rounds), ti), "count");
  report->Metric("ingest.decisions_per_round",
                 traced.eval_rounds > 0 ? static_cast<double>(ti) /
                                              static_cast<double>(traced.eval_rounds)
                                        : 0.0,
                 "count");
  report->Metric("ingest.ring_depth_max", static_cast<double>(bench->ring_depth_max()), "count");
  report->Metric("ingest.rejected", static_cast<double>(bench->rejected()), "count");
  report->Metric("ingest.invalid", static_cast<double>(bench->invalid()), "count");
  report->Metric("telemetry.compute_ns", compute, "ns");
  report->Metric("telemetry.compute_p99_us", Percentile(traced.compute_us, 0.99), "us");
  report->Metric("scaler.decide_ns.auto", decide_auto, "ns");
  report->Metric("scaler.decide_ns.diagonal", decide_diag, "ns");
  report->Metric("scaler.decide_p99_us", Percentile(traced.decide_us, 0.99), "us");
  report->Metric("scaler.categorize_ns", replay.categorize_ns, "ns");
  report->Metric("scaler.estimate_ns", replay.estimate_ns, "ns");
  report->Metric("scaler.optimizer_ns", optimizer, "ns");
  report->Metric("scaler.decide_rest_ns",
                 decide_auto + decide_diag - replay.categorize_ns -
                     replay.estimate_ns - optimizer,
                 "ns");
  report->Metric("scaler.change_frac", PerTi(static_cast<double>(traced.changed), ti), "ratio");
  report->Metric("bench.generate_ns", generate, "ns");
  report->Metric("svc.total_ns", total, "ns");
  report->Metric("svc.unattributed_ns",
                 total - generate - publish - drain - compute - decide_auto -
                     decide_diag,
                 "ns");
  report->Metric("svc.wait_ms_p50", Percentile(traced.wait_ms, 0.50), "ms");
  report->Metric("svc.state_bytes_per_tenant", state_bytes_per_tenant, "B");
  ReportTraceOverhead(rate, Throughput(traced.unit_rates), report);
  std::fprintf(stderr,
               "perfbench: %s traced %llu decisions (%llu unpaired), "
               "%zu replay captures, %zu spans\n",
               shape.name, static_cast<unsigned long long>(ti),
               static_cast<unsigned long long>(traced.unpaired),
               bench->ledger()->captures().size(), bench->spans().size());
  if (!args.trace_out.empty() && !bench->spans().WriteJsonl(args.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", args.trace_out.c_str());
  }
}

}  // namespace

void RunSvcBoundary(const Args& args, Report* report) {
  RunSvc(kBoundary, args, report);
}

void RunSvcHourly(const Args& args, Report* report) {
  RunSvc(kHourly, args, report);
}

}  // namespace perfbench
