#include "lesslog/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

namespace lesslog::util {
namespace {

TEST(SplitMix64, ReferenceVector) {
  // Reference outputs for seed 1234567 from the public-domain SplitMix64
  // implementation (Vigna).
  std::uint64_t state = 1234567;
  EXPECT_EQ(splitmix64(state), 6457827717110365317ULL);
  EXPECT_EQ(splitmix64(state), 3203168211198807973ULL);
  EXPECT_EQ(splitmix64(state), 9817491932198370423ULL);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const std::uint64_t first = a();
  a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.bounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(19);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(rate);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, NormalMomentsMatchStandard) {
  Rng rng(20);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(21);
  double sum = 0.0;
  const int n = 20000;
  int above = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    if (x > 10.0) ++above;
  }
  EXPECT_NEAR(sum / n, 10.0, 0.1);
  // Symmetry around the mean.
  EXPECT_NEAR(static_cast<double>(above) / n, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(29);
  std::vector<int> v(64);
  for (int i = 0; i < 64; ++i) v[static_cast<std::size_t>(i)] = i;
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);
}

TEST(Rng, SampleIndicesDistinctSortedInRange) {
  Rng rng(31);
  for (std::uint32_t k : {0u, 1u, 5u, 50u, 100u}) {
    const std::vector<std::uint32_t> s = rng.sample_indices(100, k);
    ASSERT_EQ(s.size(), k);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(std::set<std::uint32_t>(s.begin(), s.end()).size(), k);
    for (std::uint32_t idx : s) EXPECT_LT(idx, 100u);
  }
}

TEST(Rng, SampleAllIsIdentitySet) {
  Rng rng(37);
  const std::vector<std::uint32_t> s = rng.sample_indices(16, 16);
  for (std::uint32_t i = 0; i < 16; ++i) EXPECT_EQ(s[i], i);
}

/// FNV-1a over a sample plus the generator's next raw draw, so a pin
/// covers both the chosen indices and how many draws produced them.
std::uint64_t sample_digest(const std::vector<std::uint32_t>& s, Rng& rng) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(s.size());
  for (const std::uint32_t v : s) mix(v);
  mix(rng());
  return h;
}

TEST(Rng, SampleIndicesPinnedOutputs) {
  // Outputs recorded from the linear-scan Floyd implementation: the
  // membership structure is an implementation detail, so the draws and
  // the sorted sample must never move.
  {
    Rng rng(1);
    EXPECT_EQ(rng.sample_indices(10, 3),
              (std::vector<std::uint32_t>{4, 5, 9}));
  }
  {
    Rng rng(42);
    EXPECT_EQ(rng.sample_indices(1000, 12),
              (std::vector<std::uint32_t>{82, 290, 375, 582, 673, 681, 715,
                                          759, 765, 846, 917, 984}));
  }
  struct Case {
    std::uint64_t seed;
    std::uint32_t n;
    std::uint32_t k;
    std::uint64_t digest;
  };
  for (const Case& c : {Case{7, 100, 100, 0x4ee28af0de530176ULL},
                        Case{0xC0FFEE, 65536, 4096, 0x8bc72eb8a9323c9dULL},
                        Case{2024, 4096, 4096, 0x37161927f36e9fc7ULL}}) {
    Rng rng(c.seed);
    const std::vector<std::uint32_t> s = rng.sample_indices(c.n, c.k);
    EXPECT_EQ(sample_digest(s, rng), c.digest)
        << "seed=" << c.seed << " n=" << c.n << " k=" << c.k;
  }
}

TEST(Rng, SampleHalfOfMillionIsFast) {
  // k = 2^19 of 2^20 took tens of seconds when membership was a linear
  // scan; with a hash set it is k expected O(1) probes.
  Rng rng(99);
  const std::vector<std::uint32_t> s =
      rng.sample_indices(std::uint32_t{1} << 20, std::uint32_t{1} << 19);
  ASSERT_EQ(s.size(), std::size_t{1} << 19);
  EXPECT_TRUE(std::adjacent_find(s.begin(), s.end(),
                                 std::greater_equal<>()) == s.end());
  EXPECT_LT(s.back(), std::uint32_t{1} << 20);
  EXPECT_EQ(sample_digest(s, rng), 0xcd4e994c35020458ULL);
}

TEST(Rng, SampleIsRoughlyUniform) {
  Rng rng(41);
  std::vector<int> hits(20, 0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    for (std::uint32_t idx : rng.sample_indices(20, 5)) {
      ++hits[idx];
    }
  }
  // Each index expected trials * 5/20 = 1000 times; allow wide slack.
  for (int h : hits) {
    EXPECT_GT(h, 800);
    EXPECT_LT(h, 1200);
  }
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  Rng parent(99);
  Rng c0 = parent.split(0);
  Rng c1 = parent.split(1);
  Rng c0_again = parent.split(0);
  EXPECT_EQ(c0(), c0_again());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c0() == c1()) ++same;
  }
  EXPECT_LT(same, 2);
}

class RngStatSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngStatSweep, BoundedIsRoughlyUniform) {
  Rng rng(GetParam());
  constexpr std::uint64_t kBuckets = 8;
  std::vector<int> hits(kBuckets, 0);
  const int n = 8000;
  for (int i = 0; i < n; ++i) ++hits[rng.bounded(kBuckets)];
  for (int h : hits) {
    EXPECT_GT(h, n / static_cast<int>(kBuckets) - 250);
    EXPECT_LT(h, n / static_cast<int>(kBuckets) + 250);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngStatSweep,
                         ::testing::Values(1, 2, 3, 1000, 0xDEADBEEF));

}  // namespace
}  // namespace lesslog::util
