// Wait-statistics taxonomy (Section 3.1 of the paper).
//
// Mature engines report hundreds of wait types (SQL Server: 300+). The
// paper's estimator collapses them, via rules, into a small set of classes
// keyed to the logical or physical resource the request waited for. We model
// that collapsed layer directly: the simulated engine attributes every
// microsecond a request spends blocked to one of these classes.
//
// Only some classes are *scalable*: waits a larger container can reduce.
// Lock, latch and system waits are bottlenecks beyond resources — the core
// reason utilization-only auto-scaling over-provisions (Figure 13).

#ifndef DBSCALE_TELEMETRY_WAIT_CLASS_H_
#define DBSCALE_TELEMETRY_WAIT_CLASS_H_

#include <array>
#include <optional>

#include "src/container/container.h"

namespace dbscale::telemetry {

enum class WaitClass : int {
  kCpu = 0,         // signal wait: runnable but not scheduled
  kDiskIo = 1,      // data-page read/write queueing
  kLogIo = 2,       // log-write queueing
  kLock = 3,        // application-level (row/table) lock queues
  kLatch = 4,       // short internal synchronization
  kMemory = 5,      // workspace memory grant queues
  kBufferPool = 6,  // waiting for free buffers / page fetch completion
  kSystem = 7,      // checkpoints and other background interference
};

inline constexpr int kNumWaitClasses = 8;
inline constexpr std::array<WaitClass, kNumWaitClasses> kAllWaitClasses = {
    WaitClass::kCpu,    WaitClass::kDiskIo,     WaitClass::kLogIo,
    WaitClass::kLock,   WaitClass::kLatch,      WaitClass::kMemory,
    WaitClass::kBufferPool, WaitClass::kSystem};

const char* WaitClassToString(WaitClass wc);

/// Maps a wait class to the container resource dimension that, if scaled,
/// would relieve it — or nullopt for non-resource waits (lock/latch/system).
/// This is the paper's "rules mapping wait types to resources":
///   CPU signal waits        -> CPU
///   disk I/O waits          -> disk I/O
///   log I/O waits           -> log I/O
///   memory grant waits      -> memory
///   buffer pool waits       -> memory (more cache -> fewer page stalls)
constexpr std::optional<container::ResourceKind> WaitClassResource(
    WaitClass wc) {
  switch (wc) {
    case WaitClass::kCpu:
      return container::ResourceKind::kCpu;
    case WaitClass::kDiskIo:
      return container::ResourceKind::kDiskIo;
    case WaitClass::kLogIo:
      return container::ResourceKind::kLogIo;
    case WaitClass::kMemory:
    case WaitClass::kBufferPool:
      return container::ResourceKind::kMemory;
    case WaitClass::kLock:
    case WaitClass::kLatch:
    case WaitClass::kSystem:
      return std::nullopt;
  }
  return std::nullopt;
}

/// Wait-class masks per resource kind (the inverse of WaitClassResource),
/// built at compile time: Compute reads one per sample and resource.
inline constexpr auto kWaitClassesForResource = [] {
  std::array<std::array<bool, kNumWaitClasses>, container::kNumResources>
      masks{};
  for (WaitClass wc : kAllWaitClasses) {
    if (const auto resource = WaitClassResource(wc)) {
      masks[static_cast<size_t>(*resource)][static_cast<size_t>(wc)] = true;
    }
  }
  return masks;
}();

/// Wait classes attributed to a resource kind.
constexpr const std::array<bool, kNumWaitClasses>& WaitClassesForResource(
    container::ResourceKind kind) {
  return kWaitClassesForResource[static_cast<size_t>(kind)];
}

}  // namespace dbscale::telemetry

#endif  // DBSCALE_TELEMETRY_WAIT_CLASS_H_
