// Deterministic pseudo-random number generation.
//
// Every stochastic component in this repository (workload subsets, the
// random-replication baseline, churn arrivals, LessLog's proportional
// children-list choice) draws from an explicitly seeded Rng so that every
// experiment is bit-for-bit reproducible. The generator is xoshiro256**
// seeded via SplitMix64, following the reference implementations by
// Blackman & Vigna.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace lesslog::util {

/// SplitMix64 step; used for seeding and for cheap stateless hashing of
/// seeds. Public because tests validate reference vectors.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator so it can
/// be plugged into <random> distributions, though the members below cover
/// every need in this codebase without distribution objects.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x1e55106ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method to avoid modulo bias. Precondition: bound > 0.
  [[nodiscard]] std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    return uniform01() < p;
  }

  /// Exponential variate with the given rate (mean 1/rate). Used by the
  /// event-driven engine for Poisson arrival processes.
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Standard normal variate (Box-Muller; one value per call). Used to
  /// model measurement noise in the sampled-log baseline.
  [[nodiscard]] double normal() noexcept;

  /// Normal variate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(bounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Choose k distinct indices out of [0, n) uniformly; returned sorted.
  [[nodiscard]] std::vector<std::uint32_t> sample_indices(std::uint32_t n,
                                                          std::uint32_t k);

  /// Derive an independent child generator; stream `i` of the same parent
  /// seed is stable across runs. Used to give each parallel sweep cell its
  /// own generator.
  [[nodiscard]] Rng split(std::uint64_t stream) const noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace lesslog::util
