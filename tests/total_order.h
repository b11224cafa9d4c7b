// IEEE 754 totalOrder for test references: the order in which the
// selection kernels in src/stats/robust.h pick order statistics from
// windows of up to 32 values. A totalOrder sort plus PercentileSorted is
// the reference those kernels match bit for bit.

#ifndef DBSCALE_TESTS_TOTAL_ORDER_H_
#define DBSCALE_TESTS_TOTAL_ORDER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace dbscale::testing {

/// A double's totalOrder position as a signed integer.
inline int64_t TotalOrderKey(double value) {
  const int64_t bits = std::bit_cast<int64_t>(value);
  return bits ^ ((bits >> 63) & std::numeric_limits<int64_t>::max());
}

/// Sorts ascending by totalOrder: -0.0 before +0.0, unlike std::sort's `<`.
inline void SortTotalOrder(std::vector<double>& values) {
  std::sort(values.begin(), values.end(), [](double a, double b) {
    return TotalOrderKey(a) < TotalOrderKey(b);
  });
}

}  // namespace dbscale::testing

#endif  // DBSCALE_TESTS_TOTAL_ORDER_H_
