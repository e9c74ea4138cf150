// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every stochastic choice in the simulator flows through an Rng seeded from
// the SystemConfig so that runs are bit-reproducible; tests rely on this.
#pragma once

#include <cstdint>

namespace amo::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from `seed` via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [0, bound) — bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Standard-exponential variate (mean 1) by inverse CDF over the same
  /// seeded stream; scale by a mean interarrival time for Poisson
  /// arrivals. Consumes exactly one next() draw, so sequences stay
  /// reproducible across --threads.
  double exponential();

  /// Creates an independent child stream (for per-thread randomness).
  [[nodiscard]] Rng split();

 private:
  std::uint64_t s_[4] = {};
};

}  // namespace amo::sim
