#include "src/container/container.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/string_util.h"

namespace dbscale::container {

const char* ResourceKindToString(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return "cpu";
    case ResourceKind::kMemory:
      return "memory";
    case ResourceKind::kDiskIo:
      return "disk_io";
    case ResourceKind::kLogIo:
      return "log_io";
  }
  return "?";
}

bool ResourceVector::Dominates(const ResourceVector& other) const {
  return cpu_cores >= other.cpu_cores && memory_mb >= other.memory_mb &&
         disk_iops >= other.disk_iops && log_mbps >= other.log_mbps;
}

ResourceVector ResourceVector::Max(const ResourceVector& a,
                                   const ResourceVector& b) {
  return ResourceVector{
      std::max(a.cpu_cores, b.cpu_cores), std::max(a.memory_mb, b.memory_mb),
      std::max(a.disk_iops, b.disk_iops), std::max(a.log_mbps, b.log_mbps)};
}

ResourceVector ResourceVector::Min(const ResourceVector& a,
                                   const ResourceVector& b) {
  return ResourceVector{
      std::min(a.cpu_cores, b.cpu_cores), std::min(a.memory_mb, b.memory_mb),
      std::min(a.disk_iops, b.disk_iops), std::min(a.log_mbps, b.log_mbps)};
}

ResourceVector ResourceVector::Scaled(double factor) const {
  return ResourceVector{cpu_cores * factor, memory_mb * factor,
                        disk_iops * factor, log_mbps * factor};
}

double ResourceVector::Sum() const {
  return ((cpu_cores + memory_mb) + disk_iops) + log_mbps;
}

bool ResourceVector::AnyPositive() const {
  return cpu_cores > 0.0 || memory_mb > 0.0 || disk_iops > 0.0 ||
         log_mbps > 0.0;
}

void ResourceVector::Fold(Fnv64Stream* stream) const {
  stream->Dbl(cpu_cores);
  stream->Dbl(memory_mb);
  stream->Dbl(disk_iops);
  stream->Dbl(log_mbps);
}

std::string ResourceVector::ToString() const {
  return StrFormat("{cpu=%.2f cores, mem=%.0f MB, disk=%.0f IOPS, "
                   "log=%.1f MB/s}",
                   cpu_cores, memory_mb, disk_iops, log_mbps);
}

ContainerName::ContainerName(std::string_view name) {
  DBSCALE_CHECK(name.size() <= kMaxContainerNameLength);
  std::copy(name.begin(), name.end(), chars_.begin());
}

std::string ContainerSpec::ToString() const {
  return StrFormat("%s %s @%.1f units/interval", name.c_str(),
                   resources.ToString().c_str(), price_per_interval);
}

}  // namespace dbscale::container
