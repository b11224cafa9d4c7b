#include "src/fleet/checkpoint.h"

#include <cstdio>
#include <limits>

namespace dbscale::fleet {

namespace {

/// Streams bytes to a FILE* while folding them into the footer hash.
/// Errors latch: after the first short write every call is a no-op.
class Writer {
 public:
  explicit Writer(std::FILE* f) : f_(f) {}

  bool ok() const { return ok_; }
  uint64_t hash() const { return hash_.value; }

  void Bytes(const void* data, size_t n) {
    if (!ok_) return;
    if (std::fwrite(data, 1, n, f_) != n) {
      ok_ = false;
      return;
    }
    hash_.Bytes(data, n);
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void U32(uint32_t v) { Bytes(&v, sizeof(v)); }
  void I32(int32_t v) { Bytes(&v, sizeof(v)); }
  void U8(uint8_t v) { Bytes(&v, sizeof(v)); }
  void Dbl(double v) { Bytes(&v, sizeof(v)); }

  template <typename T>
  void Vec(const std::vector<T>& v) {
    U64(static_cast<uint64_t>(v.size()));
    Bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T, size_t N>
  void Arr(const std::array<T, N>& a) {
    Bytes(a.data(), N * sizeof(T));
  }

 private:
  std::FILE* f_;
  Fnv64Stream hash_;
  bool ok_ = true;
};

/// Bounds-checked reads from a fully-buffered checkpoint. Errors latch;
/// the caller checks ok() once per logical section.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  uint64_t hash() const { return hash_.value; }

  void Bytes(void* out, size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    hash_.Bytes(bytes_.data() + pos_, n);
    pos_ += n;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  int32_t I32() {
    int32_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  uint8_t U8() {
    uint8_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  double Dbl() {
    double v = 0.0;
    Bytes(&v, sizeof(v));
    return v;
  }

  /// Reads a length-prefixed vector, rejecting lengths that do not match
  /// `expect` (so a corrupt length cannot trigger a huge allocation).
  template <typename T>
  void Vec(std::vector<T>* out, size_t expect) {
    const uint64_t n = U64();
    if (!ok_ || n != expect ||
        n > bytes_.size() / sizeof(T) + 1) {
      ok_ = false;
      return;
    }
    out->resize(static_cast<size_t>(n));
    Bytes(out->data(), out->size() * sizeof(T));
  }
  template <typename T, size_t N>
  void Arr(std::array<T, N>* out) {
    Bytes(out->data(), N * sizeof(T));
  }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
  Fnv64Stream hash_;
  bool ok_ = true;
};

/// Serialized bytes of one host::HostState: alloc and reserved vectors,
/// the resident count, CPU pressure and throttle.
constexpr uint64_t kHostStateBytes =
    2 * container::kNumResources * sizeof(double) + sizeof(int32_t) +
    2 * sizeof(double);

void WriteAggregate(Writer& w, const FleetAggregate& agg) {
  w.U64(agg.tenants);
  w.U64(agg.hourly_records);
  w.U64(agg.total_changes);
  w.U64(agg.resize_failures);
  w.U64(agg.resize_retries);
  w.U64(agg.digest);
  w.Vec(agg.step_size_counts);
  w.Vec(agg.inter_event_gap_counts);
  w.Vec(agg.changes_per_tenant_counts);
  for (const auto& res : agg.resources) {
    w.Arr(res.util);
    w.Arr(res.wait_ms);
    w.Arr(res.wait_pct);
    w.Arr(res.wait_per_req);
    w.Arr(res.wait_per_req_low_util);
    w.Arr(res.wait_per_req_high_util);
    w.Dbl(res.util_sum);
    w.Dbl(res.wait_ms_sum);
  }
}

void ReadAggregate(Reader& r, FleetAggregate* agg, int num_rungs,
                   int num_intervals) {
  agg->Init(num_rungs, num_intervals);
  agg->tenants = r.U64();
  agg->hourly_records = r.U64();
  agg->total_changes = r.U64();
  agg->resize_failures = r.U64();
  agg->resize_retries = r.U64();
  agg->digest = r.U64();
  r.Vec(&agg->step_size_counts, static_cast<size_t>(num_rungs) + 1);
  r.Vec(&agg->inter_event_gap_counts, static_cast<size_t>(num_intervals));
  r.Vec(&agg->changes_per_tenant_counts,
        static_cast<size_t>(FleetAggregate::kMaxChangesTracked) + 1);
  for (auto& res : agg->resources) {
    r.Arr(&res.util);
    r.Arr(&res.wait_ms);
    r.Arr(&res.wait_pct);
    r.Arr(&res.wait_per_req);
    r.Arr(&res.wait_per_req_low_util);
    r.Arr(&res.wait_per_req_high_util);
    res.util_sum = r.Dbl();
    res.wait_ms_sum = r.Dbl();
  }
}

}  // namespace

Status SaveFleetCheckpoint(const std::string& path, uint64_t fingerprint,
                           int completed_intervals,
                           const FleetSoaState& state,
                           const std::vector<FleetAggregate>& block_aggs,
                           const host::HostMap* host_map) {
  if (path.empty()) return Status::InvalidArgument("empty checkpoint path");
  if (block_aggs.empty()) {
    return Status::InvalidArgument("no block aggregates to checkpoint");
  }
  if (state.host_sized() != (host_map != nullptr)) {
    return Status::InvalidArgument(
        "host map must be supplied exactly when the state has host arrays");
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open checkpoint file: " + tmp);
  }

  const int num_tenants = state.num_tenants();
  Writer w(f);
  w.U64(kFleetCheckpointMagic);
  w.U32(kFleetCheckpointVersion);
  w.U64(fingerprint);
  w.I32(completed_intervals);
  w.I32(num_tenants);
  w.U8(state.fault_sized() ? 1 : 0);
  w.U8(state.host_sized() ? 1 : 0);
  w.I32(host_map != nullptr ? host_map->num_hosts() : 0);
  w.I32(static_cast<int32_t>(block_aggs.size()));
  w.I32(block_aggs.front().num_rungs);
  w.I32(block_aggs.front().num_intervals);

  FleetSoaState::ForEachArray(state, state.fault_sized(), state.host_sized(),
                              [&w](const auto& v) { w.Vec(v); });
  if (state.host_sized()) {
    for (const host::HostState& h : host_map->hosts()) {
      for (const auto kind : container::kAllResources) {
        w.Dbl(h.alloc.Get(kind));
      }
      for (const auto kind : container::kAllResources) {
        w.Dbl(h.reserved.Get(kind));
      }
      w.I32(h.num_tenants);
      w.Dbl(h.cpu_pressure);
      w.Dbl(h.throttle);
    }
    const host::HostMap::Counters& c = host_map->counters();
    w.U64(c.migrations_begun);
    w.U64(c.migrations_completed);
    w.U64(c.migrations_failed);
    w.U64(c.downtime_intervals);
    w.U64(c.saturated_host_intervals);
    w.U64(c.placement_holds);
  }
  for (const FleetAggregate& agg : block_aggs) WriteAggregate(w, agg);
  const uint64_t footer = w.hash();
  w.U64(footer);

  const bool write_ok = w.ok();
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !close_ok) {
    std::remove(tmp.c_str());
    return Status::IoError("short write while saving checkpoint: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename checkpoint into place: " + path);
  }
  return Status::OK();
}

Result<FleetCheckpointData> LoadFleetCheckpoint(
    const std::string& path, uint64_t expected_fingerprint) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open checkpoint file: " + path);
  }
  std::string bytes;
  {
    char buf[1 << 16];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, got);
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
      return Status::IoError("read error on checkpoint file: " + path);
    }
  }

  Reader r(bytes);
  if (r.U64() != kFleetCheckpointMagic) {
    return Status::FailedPrecondition("not a fleet checkpoint: " + path);
  }
  const uint32_t version = r.U32();
  if (r.ok() && version != kFleetCheckpointVersion) {
    return Status::FailedPrecondition(
        "unsupported checkpoint version " + std::to_string(version));
  }
  const uint64_t fingerprint = r.U64();
  if (r.ok() && fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(
        "checkpoint fingerprint mismatch: the checkpoint was written by a "
        "run with different options/catalog/seed");
  }

  FleetCheckpointData data;
  data.completed_intervals = r.I32();
  const int32_t num_tenants = r.I32();
  const bool act_enabled = r.U8() != 0;
  const bool host_enabled = r.U8() != 0;
  const int32_t num_hosts = r.I32();
  const int32_t num_blocks = r.I32();
  const int32_t num_rungs = r.I32();
  const int32_t num_intervals = r.I32();
  if (!r.ok() || num_tenants <= 0 || num_blocks <= 0 || num_rungs <= 0 ||
      num_intervals <= 0 || data.completed_intervals <= 0 ||
      data.completed_intervals > num_intervals ||
      num_blocks > num_tenants ||
      (host_enabled ? num_hosts <= 0 : num_hosts != 0) ||
      (host_enabled && !act_enabled)) {
    return Status::IoError("truncated or corrupt checkpoint header: " + path);
  }

  // These counts size everything below, and the footer hash that would
  // catch a corrupt one is read last. So before allocating anything, reject
  // counts the remaining bytes cannot hold. Each section is checked against
  // what the ones before it left, so no product can overflow.
  uint64_t left = bytes.size() - r.pos();
  auto fits = [&left](uint64_t count, uint64_t unit_bytes) {
    if (count > left / unit_bytes) return false;
    left -= count * unit_bytes;
    return true;
  };
  uint64_t tenant_bytes = 0;
  FleetSoaState::ForEachArray(data.state, act_enabled, host_enabled,
                              [&tenant_bytes](const auto& v) {
                                tenant_bytes += sizeof(v[0]);
                              });
  const uint64_t aggregate_bytes =
      sizeof(uint64_t) * (static_cast<uint64_t>(num_rungs) + 1 +
                          static_cast<uint64_t>(num_intervals) +
                          FleetAggregate::kMaxChangesTracked + 1);
  if (!fits(static_cast<uint64_t>(num_tenants), tenant_bytes) ||
      !fits(static_cast<uint64_t>(num_hosts), kHostStateBytes) ||
      !fits(static_cast<uint64_t>(num_blocks), aggregate_bytes)) {
    return Status::IoError("checkpoint header counts exceed its size: " +
                           path);
  }

  const size_t n = static_cast<size_t>(num_tenants);
  FleetSoaState::ForEachArray(data.state, act_enabled, host_enabled,
                              [&r, n](auto& v) { r.Vec(&v, n); });
  if (host_enabled) {
    data.hosts.resize(static_cast<size_t>(num_hosts));
    for (host::HostState& h : data.hosts) {
      for (const auto kind : container::kAllResources) {
        h.alloc.Set(kind, r.Dbl());
      }
      for (const auto kind : container::kAllResources) {
        h.reserved.Set(kind, r.Dbl());
      }
      h.num_tenants = r.I32();
      h.cpu_pressure = r.Dbl();
      h.throttle = r.Dbl();
    }
    data.host_counters.migrations_begun = r.U64();
    data.host_counters.migrations_completed = r.U64();
    data.host_counters.migrations_failed = r.U64();
    data.host_counters.downtime_intervals = r.U64();
    data.host_counters.saturated_host_intervals = r.U64();
    data.host_counters.placement_holds = r.U64();
  }
  data.block_aggs.resize(static_cast<size_t>(num_blocks));
  for (FleetAggregate& agg : data.block_aggs) {
    ReadAggregate(r, &agg, num_rungs, num_intervals);
  }
  if (!r.ok()) {
    return Status::IoError("truncated or corrupt checkpoint body: " + path);
  }

  // The footer hash covers every byte consumed so far; grab the running
  // value BEFORE reading the stored footer (which is not self-hashed).
  const uint64_t computed = r.hash();
  const uint64_t stored = r.U64();
  if (!r.ok() || stored != computed) {
    return Status::IoError("checkpoint footer hash mismatch (corrupt?): " +
                           path);
  }
  if (r.pos() != bytes.size()) {
    return Status::IoError("trailing bytes after checkpoint footer: " + path);
  }
  return data;
}

}  // namespace dbscale::fleet
