// Incremental FNV-1a over raw value bytes: the one digest primitive, shared
// by the streaming fleet aggregation, the checkpoint footer hash, the
// host-placement accounting digest, the service and sim digests, and the
// metrics and trace digests.

#ifndef DBSCALE_COMMON_FNV_H_
#define DBSCALE_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dbscale {

struct Fnv64Stream {
  uint64_t value = 14695981039346656037ULL;

  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      value ^= static_cast<uint64_t>(p[i]);
      value *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I32(int32_t v) { Bytes(&v, sizeof(v)); }
  /// Hashes the bit pattern: digests compare doubles exactly, not "close".
  void Dbl(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
};

}  // namespace dbscale

#endif  // DBSCALE_COMMON_FNV_H_
