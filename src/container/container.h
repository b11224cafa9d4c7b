// Resource containers (Section 2.1 of the paper).
//
// A DaaS offers a catalog of container sizes; each guarantees a fixed
// resource bundle (CPU cores, memory, disk IOPS, log bandwidth) at a fixed
// price per billing interval. A tenant database runs inside exactly one
// container at a time and the auto-scaler's output is a container choice.

#ifndef DBSCALE_CONTAINER_CONTAINER_H_
#define DBSCALE_CONTAINER_CONTAINER_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/check.h"
#include "src/common/fnv.h"

namespace dbscale::container {

/// The resource dimensions a container guarantees. Matches the classes the
/// paper's estimator reasons about individually.
enum class ResourceKind : int {
  kCpu = 0,     // cores
  kMemory = 1,  // MB of buffer/workspace memory
  kDiskIo = 2,  // IOPS
  kLogIo = 3,   // MB/s of log write bandwidth
};

inline constexpr int kNumResources = 4;
inline constexpr std::array<ResourceKind, kNumResources> kAllResources = {
    ResourceKind::kCpu, ResourceKind::kMemory, ResourceKind::kDiskIo,
    ResourceKind::kLogIo};

const char* ResourceKindToString(ResourceKind kind);

/// \brief A point in the 4-dimensional resource space.
struct ResourceVector {
  double cpu_cores = 0.0;
  double memory_mb = 0.0;
  double disk_iops = 0.0;
  double log_mbps = 0.0;

  double Get(ResourceKind kind) const {
    switch (kind) {
      case ResourceKind::kCpu:
        return cpu_cores;
      case ResourceKind::kMemory:
        return memory_mb;
      case ResourceKind::kDiskIo:
        return disk_iops;
      case ResourceKind::kLogIo:
        return log_mbps;
    }
    DBSCALE_CHECK(false);
    return 0.0;
  }

  void Set(ResourceKind kind, double value) {
    switch (kind) {
      case ResourceKind::kCpu:
        cpu_cores = value;
        return;
      case ResourceKind::kMemory:
        memory_mb = value;
        return;
      case ResourceKind::kDiskIo:
        disk_iops = value;
        return;
      case ResourceKind::kLogIo:
        log_mbps = value;
        return;
    }
    DBSCALE_CHECK(false);
  }

  /// True when this bundle is >= `other` in every dimension.
  bool Dominates(const ResourceVector& other) const;

  /// Element-wise maximum.
  static ResourceVector Max(const ResourceVector& a, const ResourceVector& b);

  /// Element-wise minimum.
  static ResourceVector Min(const ResourceVector& a, const ResourceVector& b);

  /// Element-wise scale.
  ResourceVector Scaled(double factor) const;

  /// Sum of the four components (dimension-order left fold).
  double Sum() const;

  /// True when at least one component is > 0 (a non-empty demand vector).
  bool AnyPositive() const;

  /// Folds the four components into an FNV-1a stream (bit patterns, in
  /// dimension order) — the digest primitive the fleet/host accounting
  /// digests are built from.
  void Fold(Fnv64Stream* stream) const;

  bool operator==(const ResourceVector& other) const = default;

  std::string ToString() const;
};

/// Longest container name a catalog accepts: decision records and
/// explanations keep names inline (ContainerName). The longest generated
/// name, "S10-disk_io+2", has 13 bytes.
inline constexpr size_t kMaxContainerNameLength = 15;

/// \brief A container name held inline, NUL-terminated: what decision
/// records and explanations store instead of a heap string.
class ContainerName {
 public:
  ContainerName() = default;
  /// CHECKs that `name` has at most kMaxContainerNameLength bytes.
  explicit ContainerName(std::string_view name);

  std::string_view view() const { return std::string_view(chars_.data()); }
  const char* c_str() const { return chars_.data(); }

  bool operator==(std::string_view other) const { return view() == other; }

 private:
  std::array<char, kMaxContainerNameLength + 1> chars_{};
};

/// \brief One entry of a DaaS catalog: a named resource bundle with a price
/// per billing interval (abstract "cost units", as in the paper's 7..270).
struct ContainerSpec {
  /// Dense id within its catalog (also the preference order by price).
  int id = 0;
  /// Display name, e.g. "S3" or "S3-cpu+2".
  std::string name;
  ResourceVector resources;
  double price_per_interval = 0.0;
  /// Index of the lock-step rung this container is based on; variants that
  /// scale a single dimension keep their base rung here.
  int base_rung = 0;

  bool operator==(const ContainerSpec& other) const {
    return id == other.id && name == other.name &&
           resources == other.resources &&
           price_per_interval == other.price_per_interval &&
           base_rung == other.base_rung;
  }

  std::string ToString() const;
};

}  // namespace dbscale::container

#endif  // DBSCALE_CONTAINER_CONTAINER_H_
