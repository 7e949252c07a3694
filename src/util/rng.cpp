#include "lesslog/util/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace lesslog::util {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"

std::uint64_t Rng::bounded(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire (2019): multiply-shift with rejection on the low product half.
  // __int128 is a GCC/Clang extension; every supported toolchain has it.
  using u128 = unsigned __int128;
  std::uint64_t x = (*this)();
  u128 product = static_cast<u128>(x) * static_cast<u128>(bound);
  auto low = static_cast<std::uint64_t>(product);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      product = static_cast<u128>(x) * static_cast<u128>(bound);
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

#pragma GCC diagnostic pop

double Rng::exponential(double rate) noexcept {
  assert(rate > 0.0);
  // Inversion; 1 - U avoids log(0).
  return -std::log1p(-uniform01()) / rate;
}

double Rng::normal() noexcept {
  // Box-Muller; the second variate of the pair is discarded to keep the
  // generator stateless beyond its word state.
  const double u1 = 1.0 - uniform01();  // avoid log(0)
  const double u2 = uniform01();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

std::vector<std::uint32_t> Rng::sample_indices(std::uint32_t n,
                                               std::uint32_t k) {
  assert(k <= n);
  // Floyd's algorithm: k draws, O(k) expected time and O(k) scratch (a
  // hash set answers "already chosen?"), never O(n).
  std::vector<std::uint32_t> out;
  out.reserve(k);
  std::unordered_set<std::uint32_t> chosen;
  chosen.reserve(k);
  for (std::uint32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::uint32_t>(bounded(j + 1u));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);  // j > every earlier pick, so it is always free
      out.push_back(j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Rng Rng::split(std::uint64_t stream) const noexcept {
  // Mix the current state with the stream index through SplitMix64 so that
  // different streams are decorrelated regardless of the parent's position.
  std::uint64_t s = state_[0] ^ (state_[3] + 0x9e3779b97f4a7c15ULL * (stream + 1));
  const std::uint64_t seed = splitmix64(s);
  return Rng{seed};
}

}  // namespace lesslog::util
