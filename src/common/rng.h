// Deterministic random number generation.
//
// All stochastic behaviour in dbscale flows through Rng (a PCG32 generator)
// seeded explicitly by the caller, so every simulation and experiment is
// reproducible bit-for-bit. Wall-clock seeding is intentionally unsupported.

#ifndef DBSCALE_COMMON_RNG_H_
#define DBSCALE_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dbscale {

/// \brief PCG32 pseudo-random generator with a suite of distribution
/// samplers used across the simulator.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same (seed, stream)
  /// produce identical sequences.
  explicit Rng(uint64_t seed, uint64_t stream = 0);

  /// Uniform 32-bit value. Inline, like NextDouble and Bernoulli: the
  /// engine draws one per simulated page access.
  uint32_t NextUint32() {
    const uint64_t oldstate = state_;
    state_ = oldstate * kPcgMultiplier + inc_;
    const uint32_t xorshifted =
        static_cast<uint32_t>(((oldstate >> 18u) ^ oldstate) >> 27u);
    const uint32_t rot = static_cast<uint32_t>(oldstate >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform in [0, 1), from a 53-bit mantissa of two draws.
  double NextDouble() {
    const uint64_t hi = NextUint32();
    const uint64_t lo = NextUint32();
    const uint64_t bits = ((hi << 32) | lo) >> 11;  // 53 bits
    return static_cast<double>(bits) * (1.0 / 9007199254740992.0);
  }

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability p (p clamped to [0, 1]).
  bool Bernoulli(double p) { return NextDouble() < std::clamp(p, 0.0, 1.0); }

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Standard normal via Box-Muller.
  double Normal(double mean, double stddev);

  /// Lognormal with log-space parameters mu and sigma. Heavy-tailed; used
  /// to model wait-time noise in the fleet telemetry model.
  double LogNormal(double mu, double sigma);

  /// Poisson-distributed count with the given mean. Uses inversion for
  /// small means and a normal approximation for large ones.
  int64_t Poisson(double mean);

  /// Zipf-like rank in [0, n) with skew theta in [0, 1); theta = 0 is
  /// uniform. Used for hotspot page-access patterns.
  int64_t Zipf(int64_t n, double theta);

  /// Splits off an independent generator (new stream derived from this one).
  Rng Fork();

  /// \brief Complete generator position: restoring it resumes the exact
  /// output sequence. Used by the fleet checkpoint format to make resumed
  /// runs bit-identical to uninterrupted ones.
  struct State {
    uint64_t state = 0;
    uint64_t inc = 0;
    /// Box-Muller cache (Normal() produces values in pairs; the unconsumed
    /// half is part of the position).
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };

  State SaveState() const;
  void RestoreState(const State& state);
  /// A generator positioned at `state` (equivalent to RestoreState on any
  /// instance).
  static Rng FromState(const State& state);

 private:
  static constexpr uint64_t kPcgMultiplier = 6364136223846793005ULL;

  uint64_t state_;
  uint64_t inc_;
  // Cached second output of Box-Muller.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace dbscale

#endif  // DBSCALE_COMMON_RNG_H_
