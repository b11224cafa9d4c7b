#include "src/stats/robust.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/check.h"

namespace dbscale::stats {

namespace {

/// Placement of the linear-interpolated percentile within `n` sorted
/// values: blend order statistics `lo` and `hi` (0-based) with weight
/// `frac`. Requires n >= 1 and p in [0, 100].
struct PercentilePlacement {
  size_t lo = 0;
  size_t hi = 0;
  double frac = 0.0;
};

PercentilePlacement PlacePercentile(size_t n, double p) {
  DBSCALE_DCHECK(n >= 1);
  DBSCALE_DCHECK(p >= 0.0 && p <= 100.0);
  PercentilePlacement out;
  double pos = p / 100.0 * static_cast<double>(n - 1);
  out.lo = static_cast<size_t>(pos);
  out.hi = std::min(out.lo + 1, n - 1);
  out.frac = pos - static_cast<double>(out.lo);
  return out;
}

/// The interpolation kernel shared by the sorted and selection variants.
double InterpolateOrderStats(double lo_value, double hi_value, double frac) {
  return lo_value * (1.0 - frac) + hi_value * frac;
}

/// A double's IEEE 754 totalOrder position as a signed integer: a negative
/// double has every bit below the sign flipped, so integer order is
/// -NaN < -inf < ... < -0.0 < +0.0 < ... < +inf < +NaN. The map is its own
/// inverse.
int64_t TotalOrderKey(int64_t bits) {
  return bits ^ ((bits >> 63) & std::numeric_limits<int64_t>::max());
}

/// Largest window the sorting network serves; larger ones use nth_element.
constexpr size_t kNetworkMaxWindow = 32;

struct Comparator {
  uint8_t lo = 0;
  uint8_t hi = 0;
};

/// Batcher's odd-even merge sort for a power-of-two `N` inputs, in the
/// order its comparators must run. `emit` receives each (lo, hi) pair.
template <size_t N, typename Emit>
constexpr void ForEachBatcherComparator(Emit emit) {
  for (size_t p = 1; p < N; p <<= 1) {
    for (size_t k = p; k >= 1; k >>= 1) {
      for (size_t j = k % p; j + k < N; j += 2 * k) {
        for (size_t i = 0; i < std::min(k, N - j - k); ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            emit(i + j, i + j + k);
          }
        }
      }
    }
  }
}

template <size_t N>
constexpr size_t BatcherSize() {
  size_t count = 0;
  ForEachBatcherComparator<N>([&](size_t, size_t) { ++count; });
  return count;
}

template <size_t N>
constexpr auto BatcherNetwork() {
  std::array<Comparator, BatcherSize<N>()> net{};
  size_t c = 0;
  ForEachBatcherComparator<N>([&](size_t lo, size_t hi) {
    net[c++] = {static_cast<uint8_t>(lo), static_cast<uint8_t>(hi)};
  });
  return net;
}

static_assert(BatcherSize<16>() == 63 && BatcherSize<32>() == 191);

/// Orders two keys without a branch: one integer comparison selects both
/// outputs, which GCC compiles to two conditional moves. std::min/std::max
/// on the same keys, or this form on doubles, compile to compare-and-branch
/// swaps that mispredict on windows that change from call to call.
inline void CompareExchange(int64_t& a, int64_t& b) {
  const int64_t x = a;
  const int64_t y = b;
  const bool swap = y < x;
  a = swap ? y : x;
  b = swap ? x : y;
}

/// Order statistics `pos.lo` and `pos.hi` of `values` (size <= N): the
/// window's keys, padded with the largest key, run through the fully
/// unrolled N-input network. `values` is only read.
template <size_t N>
std::pair<double, double> NetworkOrderStats(std::span<const double> values,
                                            const PercentilePlacement& pos) {
  static constexpr auto kNetwork = BatcherNetwork<N>();
  std::array<int64_t, N> keys;
  keys.fill(std::numeric_limits<int64_t>::max());
  for (size_t i = 0; i < values.size(); ++i) {
    keys[i] = TotalOrderKey(std::bit_cast<int64_t>(values[i]));
  }
  [&keys]<size_t... C>(std::index_sequence<C...>) {
    (CompareExchange(keys[kNetwork[C].lo], keys[kNetwork[C].hi]), ...);
  }(std::make_index_sequence<kNetwork.size()>{});
  return {std::bit_cast<double>(TotalOrderKey(keys[pos.lo])),
          std::bit_cast<double>(TotalOrderKey(keys[pos.hi]))};
}

}  // namespace

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

// Allocating convenience wrapper; hot callers use MedianInPlace.
// dbscale-lint: allow(alloc-hot-path)
Result<double> Median(std::vector<double> values) {
  return MedianInPlace(values);
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  DBSCALE_DCHECK(!sorted.empty());
  DBSCALE_DCHECK(p >= 0.0 && p <= 100.0);
  if (sorted.size() == 1) return sorted[0];
  PercentilePlacement pos = PlacePercentile(sorted.size(), p);
  return InterpolateOrderStats(sorted[pos.lo], sorted[pos.hi], pos.frac);
}

// Allocating convenience wrapper; hot callers use PercentileInPlace.
// dbscale-lint: allow(alloc-hot-path)
Result<double> Percentile(std::vector<double> values, double p) {
  return PercentileInPlace(values, p);
}

Result<double> PercentileInPlace(std::span<double> values, double p) {
  if (values.empty()) {
    return Status::InvalidArgument("Percentile of empty sample");
  }
  if (p < 0.0 || p > 100.0) {
    return Status::OutOfRange("percentile must be in [0, 100]");
  }
  if (values.size() == 1) return values[0];
  // Mirror PercentileSorted's interpolation exactly: find the lo-th and
  // hi-th order statistics, then blend them.
  PercentilePlacement pos = PlacePercentile(values.size(), p);
  std::pair<double, double> order_stats;
  if (values.size() <= kNetworkMaxWindow / 2) {
    order_stats = NetworkOrderStats<kNetworkMaxWindow / 2>(values, pos);
  } else if (values.size() <= kNetworkMaxWindow) {
    order_stats = NetworkOrderStats<kNetworkMaxWindow>(values, pos);
  } else {
    // Select the lo-th order statistic, then take the minimum of the upper
    // partition as the hi-th.
    auto lo_it = values.begin() + static_cast<ptrdiff_t>(pos.lo);
    std::nth_element(values.begin(), lo_it, values.end());
    order_stats.first = *lo_it;
    order_stats.second = pos.hi == pos.lo
                             ? *lo_it
                             : *std::min_element(lo_it + 1, values.end());
  }
  return InterpolateOrderStats(order_stats.first, order_stats.second,
                               pos.frac);
}

Result<double> MedianInPlace(std::span<double> values) {
  return PercentileInPlace(values, 50.0);
}

Result<double> Mad(const std::vector<double>& values) {
  // Allocating convenience wrapper; hot callers use MadInPlace.
  std::vector<double> scratch(values);  // dbscale-lint: allow(alloc-hot-path)
  return MadInPlace(scratch);
}

Result<double> MadInPlace(std::span<double> values) {
  if (values.empty()) {
    return Status::InvalidArgument("MAD of empty sample");
  }
  // MedianInPlace at most permutes, so the multiset survives for the
  // deviation pass.
  DBSCALE_ASSIGN_OR_RETURN(double med, MedianInPlace(values));
  for (double& v : values) v = std::fabs(v - med);
  DBSCALE_ASSIGN_OR_RETURN(double mad, MedianInPlace(values));
  // 1.4826 makes MAD a consistent estimator of sigma for normal data.
  return 1.4826 * mad;
}

// Sorting copy by design: TrimmedMean is report-path only, never hot.
// dbscale-lint: allow(alloc-hot-path)
Result<double> TrimmedMean(std::vector<double> values, double trim_fraction) {
  if (values.empty()) {
    return Status::InvalidArgument("TrimmedMean of empty sample");
  }
  if (trim_fraction < 0.0 || trim_fraction >= 0.5) {
    return Status::OutOfRange("trim_fraction must be in [0, 0.5)");
  }
  std::sort(values.begin(), values.end());
  size_t k = static_cast<size_t>(trim_fraction *
                                 static_cast<double>(values.size()));
  size_t lo = k;
  size_t hi = values.size() - k;
  DBSCALE_CHECK(hi > lo);
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  int64_t total = count_ + other.count_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = total;
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace dbscale::stats
