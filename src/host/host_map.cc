#include "src/host/host_map.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/fnv.h"
#include "src/common/string_util.h"

namespace dbscale::host {

const char* PlacementPolicyKindToString(PlacementPolicyKind kind) {
  switch (kind) {
    case PlacementPolicyKind::kFirstFit:
      return "first_fit";
    case PlacementPolicyKind::kBestFit:
      return "best_fit";
    case PlacementPolicyKind::kWorstFit:
      return "worst_fit";
  }
  return "?";
}

Status HostOptions::Validate() const {
  if (num_hosts < 0) {
    return Status::InvalidArgument("host.num_hosts must be >= 0");
  }
  if (!enabled()) return Status::OK();
  for (const auto kind : container::kAllResources) {
    if (capacity.Get(kind) <= 0.0) {
      return Status::InvalidArgument(
          StrFormat("host.capacity.%s must be > 0 when hosts are enabled",
                    container::ResourceKindToString(kind)));
    }
    if (background.Get(kind) < 0.0) {
      return Status::InvalidArgument(
          StrFormat("host.background.%s must be >= 0",
                    container::ResourceKindToString(kind)));
    }
  }
  if (overcommit_factor < 1.0) {
    return Status::InvalidArgument("host.overcommit_factor must be >= 1");
  }
  if (migration_latency_intervals < 1) {
    // The interval a migration begins in is never billed as downtime, so
    // with no copy interval before the blackout a migration would bill
    // D - 1 downtime intervals, not D.
    return Status::InvalidArgument(
        "host.migration_latency_intervals must be >= 1");
  }
  if (migration_downtime_intervals < 0) {
    return Status::InvalidArgument(
        "host.migration_downtime_intervals must be >= 0");
  }
  if (migration_downtime_wait_factor < 1.0) {
    return Status::InvalidArgument(
        "host.migration_downtime_wait_factor must be >= 1");
  }
  if (interference_start_ratio <= 0.0) {
    return Status::InvalidArgument(
        "host.interference_start_ratio must be > 0");
  }
  if (interference_slope < 0.0) {
    return Status::InvalidArgument("host.interference_slope must be >= 0");
  }
  if (hot_hosts < 0 || hot_hosts > num_hosts) {
    return Status::InvalidArgument(
        "host.hot_hosts must be within [0, num_hosts]");
  }
  for (const auto kind : container::kAllResources) {
    if (hot_extra.Get(kind) < 0.0) {
      return Status::InvalidArgument(
          StrFormat("host.hot_extra.%s must be >= 0",
                    container::ResourceKindToString(kind)));
    }
  }
  return Status::OK();
}

container::ResourceVector UpDelta(const container::ResourceVector& old_bundle,
                                  const container::ResourceVector& new_bundle) {
  container::ResourceVector delta;
  for (const auto kind : container::kAllResources) {
    delta.Set(kind,
              std::max(0.0, new_bundle.Get(kind) - old_bundle.Get(kind)));
  }
  return delta;
}

// Options are validated by the owning simulation / fleet runner before a
// HostMap is ever constructed (Simulation::Run and FleetScaleOptions
// fingerprinting both call HostOptions::Validate()); the constructor only
// re-checks the structural invariant it depends on.
// dbscale-lint: allow(options-validate)
HostMap::HostMap(const HostOptions& options)
    : options_(options),
      limit_(options.capacity.Scaled(options.overcommit_factor)),
      hosts_(static_cast<size_t>(options.num_hosts)) {
  DBSCALE_CHECK(options.num_hosts > 0);
  for (HostState& h : hosts_) h.alloc = options_.background;
  for (int i = 0; i < options_.hot_hosts; ++i) {
    container::ResourceVector& alloc = hosts_[static_cast<size_t>(i)].alloc;
    for (const auto kind : container::kAllResources) {
      alloc.Set(kind, alloc.Get(kind) + options_.hot_extra.Get(kind));
    }
  }
}

Result<std::vector<int>> HostMap::SeedPlace(
    const std::vector<container::ContainerSpec>& containers) {
  // First-fit-decreasing: big tenants first so stragglers slot into the
  // gaps. Ties break on tenant index so the order (and hence the digest)
  // is fully determined by the input.
  std::vector<int> order(containers.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double pa = containers[static_cast<size_t>(a)].price_per_interval;
    const double pb = containers[static_cast<size_t>(b)].price_per_interval;
    if (pa != pb) return pa > pb;
    return a < b;
  });

  std::vector<int> host_of(containers.size(), -1);
  for (const int tenant : order) {
    const container::ResourceVector& bundle =
        containers[static_cast<size_t>(tenant)].resources;
    int placed = -1;
    for (int id = 0; id < num_hosts(); ++id) {
      if (FitsOn(id, bundle)) {
        placed = id;
        break;
      }
    }
    if (placed < 0) {
      return Status::ResourceExhausted(StrFormat(
          "seed placement: tenant %d (%s) fits on no host (%d hosts, "
          "capacity %s x%.2f)",
          tenant, containers[static_cast<size_t>(tenant)].name.c_str(),
          num_hosts(), options_.capacity.ToString().c_str(),
          options_.overcommit_factor));
    }
    Place(placed, bundle);
    host_of[static_cast<size_t>(tenant)] = placed;
  }
  return host_of;
}

// dbscale-hot
bool HostMap::FitsOn(int id, const container::ResourceVector& extra) const {
  const HostState& h = hosts_[static_cast<size_t>(id)];
  for (const auto kind : container::kAllResources) {
    if (h.alloc.Get(kind) + h.reserved.Get(kind) + extra.Get(kind) >
        limit_.Get(kind)) {
      return false;
    }
  }
  return true;
}

container::ResourceVector HostMap::FreeOn(int id) const {
  const HostState& h = hosts_[static_cast<size_t>(id)];
  container::ResourceVector free;
  for (const auto kind : container::kAllResources) {
    free.Set(kind, std::max(0.0, limit_.Get(kind) - h.alloc.Get(kind) -
                                     h.reserved.Get(kind)));
  }
  return free;
}

namespace {

// dbscale-hot
void AddInto(container::ResourceVector& acc,
             const container::ResourceVector& v) {
  acc.cpu_cores += v.cpu_cores;
  acc.memory_mb += v.memory_mb;
  acc.disk_iops += v.disk_iops;
  acc.log_mbps += v.log_mbps;
}

// dbscale-hot
void SubFrom(container::ResourceVector& acc,
             const container::ResourceVector& v) {
  acc.cpu_cores -= v.cpu_cores;
  acc.memory_mb -= v.memory_mb;
  acc.disk_iops -= v.disk_iops;
  acc.log_mbps -= v.log_mbps;
}

}  // namespace

void HostMap::Place(int id, const container::ResourceVector& bundle) {
  HostState& h = hosts_[static_cast<size_t>(id)];
  AddInto(h.alloc, bundle);
  ++h.num_tenants;
}

void HostMap::Remove(int id, const container::ResourceVector& bundle) {
  HostState& h = hosts_[static_cast<size_t>(id)];
  SubFrom(h.alloc, bundle);
  --h.num_tenants;
  DBSCALE_CHECK(h.num_tenants >= 0);
}

void HostMap::ReserveLocal(int id, const container::ResourceVector& up_delta) {
  AddInto(hosts_[static_cast<size_t>(id)].reserved, up_delta);
}

void HostMap::CommitLocal(int id, const container::ResourceVector& up_delta,
                          const container::ResourceVector& old_bundle,
                          const container::ResourceVector& new_bundle) {
  HostState& h = hosts_[static_cast<size_t>(id)];
  SubFrom(h.reserved, up_delta);
  SubFrom(h.alloc, old_bundle);
  AddInto(h.alloc, new_bundle);
}

void HostMap::AbortLocal(int id, const container::ResourceVector& up_delta) {
  SubFrom(hosts_[static_cast<size_t>(id)].reserved, up_delta);
}

void HostMap::BeginMigration(int dest, const container::ResourceVector& target) {
  AddInto(hosts_[static_cast<size_t>(dest)].reserved, target);
  ++counters_.migrations_begun;
}

void HostMap::CompleteMigration(int source, int dest,
                                const container::ResourceVector& old_bundle,
                                const container::ResourceVector& new_bundle) {
  HostState& d = hosts_[static_cast<size_t>(dest)];
  SubFrom(d.reserved, new_bundle);
  AddInto(d.alloc, new_bundle);
  ++d.num_tenants;
  Remove(source, old_bundle);
  ++counters_.migrations_completed;
}

void HostMap::AbortMigration(int dest, const container::ResourceVector& target) {
  SubFrom(hosts_[static_cast<size_t>(dest)].reserved, target);
  ++counters_.migrations_failed;
}

// dbscale-hot
int HostMap::Settle(const fault::ActuationOutcome& outcome, int host, int dest,
                    const container::ResourceVector& from) {
  const bool migration = outcome.kind == fault::ActuationKind::kMigration;
  const container::ResourceVector& to = outcome.target.resources;
  if (outcome.phase == fault::ActuationPhase::kApplied) {
    if (migration) {
      CompleteMigration(host, dest, from, to);
      return dest;
    }
    CommitLocal(host, UpDelta(from, to), from, to);
  } else if (outcome.phase == fault::ActuationPhase::kFailed) {
    if (migration) {
      AbortMigration(dest, to);
    } else {
      AbortLocal(host, UpDelta(from, to));
    }
  }
  return host;
}

// dbscale-hot
void HostMap::UpdateInterference(
    const std::vector<double>& resident_demand_cpu) {
  DBSCALE_CHECK(resident_demand_cpu.size() == hosts_.size());
  const double capacity_cpu = options_.capacity.cpu_cores;
  const double background_cpu = options_.background.cpu_cores;
  for (size_t i = 0; i < hosts_.size(); ++i) {
    HostState& h = hosts_[i];
    const double hot = static_cast<int>(i) < options_.hot_hosts
                           ? options_.hot_extra.cpu_cores
                           : 0.0;
    h.cpu_pressure =
        (background_cpu + hot + resident_demand_cpu[i]) / capacity_cpu;
    h.throttle =
        1.0 + options_.interference_slope *
                  std::max(0.0, h.cpu_pressure -
                                    options_.interference_start_ratio);
    if (h.cpu_pressure > 1.0) ++counters_.saturated_host_intervals;
  }
}

uint64_t HostMap::Digest() const {
  Fnv64Stream hash;
  for (const HostState& h : hosts_) {
    hash.Dbl(h.alloc.cpu_cores);
    hash.Dbl(h.alloc.memory_mb);
    hash.Dbl(h.alloc.disk_iops);
    hash.Dbl(h.alloc.log_mbps);
    hash.Dbl(h.reserved.cpu_cores);
    hash.Dbl(h.reserved.memory_mb);
    hash.Dbl(h.reserved.disk_iops);
    hash.Dbl(h.reserved.log_mbps);
    hash.I32(h.num_tenants);
    hash.Dbl(h.throttle);
  }
  hash.U64(counters_.migrations_begun);
  hash.U64(counters_.migrations_completed);
  hash.U64(counters_.migrations_failed);
  hash.U64(counters_.downtime_intervals);
  hash.U64(counters_.saturated_host_intervals);
  hash.U64(counters_.placement_holds);
  return hash.value;
}

}  // namespace dbscale::host
