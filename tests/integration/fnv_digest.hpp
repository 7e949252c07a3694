// FNV-1a fingerprints for pinning swarm outcomes as literal constants.
//
// Tests that pin a run's results (golden digests, the S = 1 answers the
// deleted serial swarm gave) fold latencies, counters and gauges into one
// 64-bit value each, so a literal in the test stands for a whole vector.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lesslog::test {

/// FNV-1a, fed 64-bit words byte by byte.
class Digest {
 public:
  void mix(std::uint64_t v) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xFFU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double v) noexcept { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(std::string_view s) noexcept {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) mix(static_cast<std::uint64_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Length, then every value's bits, in order.
inline std::uint64_t digest_of(const std::vector<double>& values) {
  Digest d;
  d.mix(static_cast<std::uint64_t>(values.size()));
  for (const double v : values) d.mix(v);
  return d.value();
}

/// Every (name, value) pair, in order: a snapshot's counters or gauges.
template <typename T>
std::uint64_t digest_of(
    const std::vector<std::pair<std::string, T>>& cells) {
  Digest d;
  for (const auto& [name, value] : cells) {
    d.mix(name);
    d.mix(value);
  }
  return d.value();
}

}  // namespace lesslog::test
