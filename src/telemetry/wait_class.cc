#include "src/telemetry/wait_class.h"

namespace dbscale::telemetry {

const char* WaitClassToString(WaitClass wc) {
  switch (wc) {
    case WaitClass::kCpu:
      return "CPU";
    case WaitClass::kDiskIo:
      return "DiskIO";
    case WaitClass::kLogIo:
      return "LogIO";
    case WaitClass::kLock:
      return "Lock";
    case WaitClass::kLatch:
      return "Latch";
    case WaitClass::kMemory:
      return "Memory";
    case WaitClass::kBufferPool:
      return "BufferPool";
    case WaitClass::kSystem:
      return "System";
  }
  return "?";
}

}  // namespace dbscale::telemetry
