#include "src/ingest/scaler_service.h"

#include <algorithm>
#include <cstdint>

#include "src/common/check.h"

namespace dbscale::ingest {

namespace {
/// Sentinel in producer_next_seq_: no sample seen from this producer yet.
constexpr uint64_t kNoSeqYet = UINT64_MAX;
}  // namespace

Status ScalerServiceOptions::Validate() const {
  if (store_retention < telemetry.widest_window()) {
    // A shorter store would silently truncate every window that reads it.
    return Status::InvalidArgument(
        "store_retention must cover the largest telemetry window");
  }
  if (samples_per_interval == 0) {
    return Status::InvalidArgument("samples_per_interval must be >= 1");
  }
  if (max_drain_batch == 0) {
    return Status::InvalidArgument("max_drain_batch must be >= 1");
  }
  if (max_producers == 0) {
    return Status::InvalidArgument("max_producers must be >= 1");
  }
  if (decision_latency_sink != nullptr && timer == nullptr) {
    return Status::InvalidArgument(
        "decision_latency_sink requires a timer to fill it");
  }
  return Status::OK();
}

ScalerService::ScalerService(IngestRing* ring, ScalerServiceOptions options,
                             ThreadPool* pool, obs::Observability* ob)
    : ring_(ring),
      options_(std::move(options)),
      pool_(pool),
      ob_(ob),
      manager_(options_.telemetry) {
  DBSCALE_CHECK(options_.Validate().ok());
  DBSCALE_CHECK(manager_.Validate().ok());
  const size_t widest = options_.telemetry.widest_window();
  first_stored_ = options_.samples_per_interval > widest
                      ? options_.samples_per_interval - widest
                      : 0;
  if (ob_ != nullptr) {
    metrics_ = IngestMetrics::Register(&ob_->registry());
    ob_->AttachPrimary();
    sink_ = ob_->PrimarySink();
  }
}

Status ScalerService::AddTenant(
    uint64_t tenant_id, std::unique_ptr<scaler::ScalingPolicy> policy,
    const container::ContainerSpec& initial) {
  if (policy == nullptr) {
    return Status::InvalidArgument("AddTenant: policy must not be null");
  }
  const auto pos =
      std::lower_bound(tenant_ids_.begin(), tenant_ids_.end(), tenant_id);
  if (pos != tenant_ids_.end() && *pos == tenant_id) {
    return Status::AlreadyExists("AddTenant: duplicate tenant id");
  }
  TenantState& t = tenants_.emplace_back(options_.store_retention);
  const auto at = pos - tenant_ids_.begin();
  tenant_ids_.insert(pos, tenant_id);
  tenant_index_.insert(tenant_index_.begin() + at, &t);
  t.id = tenant_id;
  t.policy = std::move(policy);
  t.current = initial;
  return Status::OK();
}

void ScalerService::EnsureBuffers() {
  if (batch_.size() != options_.max_drain_batch) {
    batch_.resize(options_.max_drain_batch);
    carry_a_.reserve(options_.max_drain_batch);
    carry_b_.reserve(options_.max_drain_batch);
  }
  if (sized_tenants_ != tenants_.size()) {
    sized_tenants_ = tenants_.size();
    slots_.resize(sized_tenants_);
    compute_ns_.resize(sized_tenants_);
    due_.reserve(sized_tenants_);
  }
  if (producer_next_seq_.size() != options_.max_producers) {
    producer_next_seq_.assign(options_.max_producers, kNoSeqYet);
  }
  const size_t slices =
      pool_ != nullptr ? static_cast<size_t>(pool_->num_threads()) : 1;
  if (scratch_.size() != slices) scratch_.resize(slices);
}

// dbscale-hot: first pass over every drained batch; allocation-free.
void ScalerService::CheckProducerSeqs(const WireSample* samples, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const WireSample& w = samples[i];
    if (w.producer_id >= producer_next_seq_.size()) {
      ++counters_.unknown_producer;
      continue;
    }
    uint64_t& next = producer_next_seq_[w.producer_id];
    if (next != kNoSeqYet && w.producer_seq != next) {
      // Producers consume a sequence number only on an accepted push and
      // the ring never reorders one producer's samples, so anything but
      // the consecutive next value is a protocol violation.
      ++counters_.seq_violations;
      sink_.metrics.Add(metrics_.seq_violations_total, 1.0);
    }
    next = w.producer_seq + 1;
  }
}

// dbscale-hot: the batch drain loop — pop, route in rounds, evaluate.
// Steady-state allocation-free, decisions included once Auto's and
// Diagonal's audit logs are full (a policy of the caller's may allocate).
size_t ScalerService::DrainOnce() {
  DBSCALE_CHECK(ring_ != nullptr);
  EnsureBuffers();
  const size_t n = ring_->PopBatch(batch_.data(), batch_.size());
  ++counters_.drains;
  counters_.drained += n;

  obs::Sink sink = sink_;
  if (ob_ != nullptr) {
    ob_->trace().BeginInterval(static_cast<int>(counters_.drains),
                               SimTime::FromMicros(max_period_end_us_));
    sink = sink_.Under(ob_->trace().root());
  }
  const obs::SpanId drain_span = sink.trace.Start(
      "ingest.drain", SimTime::FromMicros(max_period_end_us_));
  sink.metrics.Add(metrics_.drains_total, 1.0);
  sink.metrics.Add(metrics_.samples_drained_total,
                   static_cast<double>(n));
  sink.metrics.Observe(metrics_.drain_batch_size, static_cast<double>(n));
  sink.metrics.Set(metrics_.ring_depth,
                   static_cast<double>(ring_->ApproxDepth()));
  sink.metrics.Set(metrics_.ring_rejected_total,
                   static_cast<double>(ring_->rejected()));

  if (n > 0) {
    CheckProducerSeqs(batch_.data(), n);
    ProcessBatch(batch_.data(), n, sink.Under(drain_span));
  }
  sink.trace.Attr(drain_span, "drained", static_cast<double>(n));
  sink.trace.End(drain_span, SimTime::FromMicros(max_period_end_us_));
  if (ob_ != nullptr) {
    ob_->trace().EndInterval(SimTime::FromMicros(max_period_end_us_));
  }
  return n;
}

size_t ScalerService::DrainAll() {
  size_t total = 0;
  for (;;) {
    const size_t n = DrainOnce();
    if (n == 0) return total;
    total += n;
  }
}

// dbscale-hot: rounds-based routing with a carry buffer. Every sample of a
// tenant whose decision is pending parks until that decision is taken, so
// store content at each decision matches the sim loop exactly.
void ScalerService::ProcessBatch(const WireSample* samples, size_t n,
                                 const obs::Sink& sink) {
  ++round_;
  carry_a_.clear();
  for (size_t i = 0; i < n; ++i) RouteOrPark(samples[i], carry_a_);
  EvaluateDue(sink);
  while (!carry_a_.empty()) {
    ++round_;
    carry_b_.clear();
    for (const WireSample& w : carry_a_) RouteOrPark(w, carry_b_);
    EvaluateDue(sink);
    carry_a_.swap(carry_b_);
  }
}

// dbscale-hot: per-sample routing; allocation-free (park/due push_backs
// stay within capacity reserved by EnsureBuffers).
void ScalerService::RouteOrPark(const WireSample& wire,
                                std::vector<WireSample>& park) {
  TenantState* t = FindTenant(wire.tenant_id);
  if (t == nullptr) {
    ++counters_.unknown_tenant;
    sink_.metrics.Add(metrics_.samples_unknown_tenant_total, 1.0);
    return;
  }
  if (t->due || t->parked_round == round_) {
    t->parked_round = round_;
    park.push_back(wire);
    return;
  }
  if (!WireSampleLooksValid(wire)) {
    // Ingestion guard: non-finite telemetry never reaches a store (same
    // contract as the sim loop's store-side check).
    ++counters_.invalid;
    sink_.metrics.Add(metrics_.samples_invalid_total, 1.0);
    return;
  }
  if (t->routed_any && wire.period_end_us < t->last_period_end_us) {
    ++counters_.out_of_order;
    sink_.metrics.Add(metrics_.samples_out_of_order_total, 1.0);
    return;
  }
  // The decision this interval closes with reads only the newest
  // widest-window samples, so earlier ones are never stored (header
  // comment, point 2).
  if (t->samples_in_interval >= first_stored_) AppendToStore(wire, t->store);
  t->routed_any = true;
  t->last_period_end_us = wire.period_end_us;
  if (wire.period_end_us > max_period_end_us_) {
    max_period_end_us_ = wire.period_end_us;
  }
  ++t->samples_in_interval;
  ++counters_.routed;
  sink_.metrics.Add(metrics_.samples_routed_total, 1.0);
  if (t->samples_in_interval >= options_.samples_per_interval) {
    t->due = true;
    due_.push_back(t);
  }
}

void ScalerService::EvaluateDue(const obs::Sink& sink) {
  const size_t n = due_.size();
  if (n == 0) return;
  // Tenant-order merge: the fold below must not depend on arrival order.
  std::sort(due_.begin(), due_.end(),
            [](const TenantState* a, const TenantState* b) {
              return a->id < b->id;
            });
  ++counters_.eval_rounds;
  const SimTime now = SimTime::FromMicros(max_period_end_us_);
  const obs::SpanId span = sink.trace.Start("decide.batch", now);
  sink.metrics.Observe(metrics_.decide_batch_size, static_cast<double>(n));

  uint64_t (*timer)() = options_.timer;
  // Compute over contiguous slices of due_, slice k on scratch_[k]:
  // ThreadPool has no worker index, so the slice index is what keeps two
  // threads off one scratch.
  const size_t slices = std::min(scratch_.size(), n);
  const auto prepare = [this, timer, n, slices](int64_t k) {
    const size_t slice = static_cast<size_t>(k);
    telemetry::SignalScratch* scratch = &scratch_[slice].signals;
    for (size_t i = n * slice / slices; i < n * (slice + 1) / slices; ++i) {
      TenantState* t = due_[i];
      scaler::DecisionSlot& slot = slots_[i];
      const uint64_t t0 = timer != nullptr ? timer() : 0;
      slot.policy = t->policy.get();
      // The exact sim-loop decision input: the boundary clock is the
      // interval's last sample period_end, billing follows the container
      // in effect, and resize feedback carries last interval's outcome.
      slot.input.now = SimTime::FromMicros(t->last_period_end_us);
      slot.input.signals =
          manager_.Compute(t->store, slot.input.now, scratch);
      slot.input.current = t->current;
      slot.input.interval_index = t->interval_index;
      slot.input.charged_cost = t->current.price_per_interval;
      slot.input.actuation = t->feedback;
      // Workers must not share the drainer's primary shard; the service's
      // instruments live at the drain/decide stages instead.
      slot.input.obs = obs::Sink{};
      compute_ns_[i] = timer != nullptr ? timer() - t0 : 0;
    }
  };
  if (slices == 1) {
    prepare(0);
  } else {
    pool_->ParallelFor(0, static_cast<int64_t>(slices), prepare);
  }

  scaler::DecideBatch(slots_.data(), n, pool_, timer);

  // Serial fold in tenant order: digests, container state, feedback.
  for (size_t i = 0; i < n; ++i) {
    TenantState* t = due_[i];
    const scaler::ScalingDecision& d = slots_[i].decision;
    // Every policy must state why it decided (same acceptance contract as
    // the sim loop).
    DBSCALE_CHECK(d.explanation.set());
    t->digest.I32(t->interval_index);
    t->digest.I32(d.target.id);
    t->digest.I32(static_cast<int32_t>(d.explanation.code));
    t->digest.Dbl(d.memory_limit_mb.has_value() ? *d.memory_limit_mb
                                                : -1.0);
    t->feedback = scaler::ActuationFeedback{};
    if (d.target.id != t->current.id) {
      t->current = d.target;
      t->feedback.phase = scaler::ActuationPhase::kApplied;
      t->feedback.target = t->current;
      t->feedback.attempt = 1;
    }
    ++t->interval_index;
    t->samples_in_interval = 0;
    t->due = false;
    ++counters_.decisions;
    if (timer != nullptr && options_.decision_latency_sink != nullptr) {
      options_.decision_latency_sink->push_back(compute_ns_[i] +
                                                slots_[i].decide_ns);
    }
  }
  sink.metrics.Add(metrics_.decisions_total, static_cast<double>(n));
  sink.trace.Attr(span, "tenants", static_cast<double>(n));
  sink.trace.End(span, now);
  due_.clear();
}

void ScalerService::OfferDirect(const WireSample& sample) {
  EnsureBuffers();
  ++counters_.drained;
  CheckProducerSeqs(&sample, 1);
  ++round_;
  carry_a_.clear();
  RouteOrPark(sample, carry_a_);
  EvaluateDue(sink_);
  // Direct feed evaluates the moment a tenant is due, so a sample can
  // never land on a tenant with a pending decision.
  DBSCALE_CHECK(carry_a_.empty());
}

uint64_t ScalerService::Digest() const {
  Fnv64Stream d;
  for (const TenantState* t : tenant_index_) {
    d.U64(t->id);
    d.U64(static_cast<uint64_t>(t->interval_index));
    d.U64(t->digest.value);
  }
  return d.value;
}

uint64_t ScalerService::TenantDigest(uint64_t tenant_id) const {
  const TenantState* t = FindTenant(tenant_id);
  return t != nullptr ? t->digest.value : 0;
}

const container::ContainerSpec* ScalerService::CurrentContainer(
    uint64_t tenant_id) const {
  const TenantState* t = FindTenant(tenant_id);
  return t != nullptr ? &t->current : nullptr;
}

int ScalerService::IntervalIndex(uint64_t tenant_id) const {
  const TenantState* t = FindTenant(tenant_id);
  return t != nullptr ? t->interval_index : -1;
}

// dbscale-hot: one binary search over the contiguous id index per sample.
// Branch-free: producers interleave tenants, so every lookup takes a new
// path and a branching search mispredicts about half its steps.
ScalerService::TenantState* ScalerService::FindTenant(
    uint64_t tenant_id) const {
  size_t n = tenant_ids_.size();
  if (n == 0) return nullptr;
  const uint64_t* base = tenant_ids_.data();
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half] < tenant_id ? base + half : base;
    n -= half;
  }
  base += *base < tenant_id;  // lower bound
  const size_t i = static_cast<size_t>(base - tenant_ids_.data());
  if (i == tenant_ids_.size() || *base != tenant_id) return nullptr;
  return tenant_index_[i];
}

}  // namespace dbscale::ingest
