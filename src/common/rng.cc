#include "src/common/rng.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace dbscale {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0u;
  NextUint32();
  state_ += seed;
  NextUint32();
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  DBSCALE_DCHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<int64_t>((static_cast<uint64_t>(NextUint32()) << 32) |
                                NextUint32());
  }
  // Rejection-free modulo is fine here: span is tiny relative to 2^64 in all
  // simulator uses, so the bias is negligible.
  uint64_t draw = (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
  return lo + static_cast<int64_t>(draw % span);
}

double Rng::Exponential(double mean) {
  DBSCALE_DCHECK(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  u = std::max(u, 1e-300);
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = std::max(NextDouble(), 1e-300);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double z0 = r * std::cos(kTwoPi * u2);
  double z1 = r * std::sin(kTwoPi * u2);
  cached_normal_ = z1;
  has_cached_normal_ = true;
  return mean + stddev * z0;
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

int64_t Rng::Poisson(double mean) {
  DBSCALE_DCHECK(mean >= 0);
  if (mean <= 0) return 0;
  if (mean < 30.0) {
    // Knuth inversion.
    double limit = std::exp(-mean);
    double product = NextDouble();
    int64_t count = 0;
    while (product > limit) {
      ++count;
      product *= NextDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction.
  double draw = Normal(mean, std::sqrt(mean));
  return std::max<int64_t>(0, static_cast<int64_t>(std::llround(draw)));
}

int64_t Rng::Zipf(int64_t n, double theta) {
  DBSCALE_DCHECK(n > 0);
  if (theta <= 0.0) return UniformInt(0, n - 1);
  // Approximate inverse-CDF sampling of a Zipf-like (power-law) rank
  // distribution: rank ~ floor(n * u^(1/(1-theta))) concentrates mass on
  // low ranks as theta -> 1.
  double u = NextDouble();
  double exponent = 1.0 / (1.0 - std::min(theta, 0.999));
  int64_t rank = static_cast<int64_t>(
      static_cast<double>(n) * std::pow(u, exponent));
  return std::min(rank, n - 1);
}

Rng Rng::Fork() {
  uint64_t seed = (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
  uint64_t stream = (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
  return Rng(seed, stream);
}

Rng::State Rng::SaveState() const {
  State s;
  s.state = state_;
  s.inc = inc_;
  s.has_cached_normal = has_cached_normal_;
  s.cached_normal = cached_normal_;
  return s;
}

void Rng::RestoreState(const State& state) {
  state_ = state.state;
  inc_ = state.inc;
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

Rng Rng::FromState(const State& state) {
  Rng rng(0);
  rng.RestoreState(state);
  return rng;
}

}  // namespace dbscale
