#include "lesslog/util/bits.hpp"

#include <gtest/gtest.h>

#include <string>

#include "lesslog/core/virtual_tree.hpp"

namespace lesslog::util {
namespace {

TEST(Bits, ValidWidth) {
  EXPECT_FALSE(valid_width(0));
  EXPECT_TRUE(valid_width(1));
  EXPECT_TRUE(valid_width(10));
  EXPECT_TRUE(valid_width(kMaxIdBits));
  EXPECT_FALSE(valid_width(kMaxIdBits + 1));
  EXPECT_FALSE(valid_width(-3));
}

TEST(Bits, MaskOf) {
  EXPECT_EQ(mask_of(1), 0b1u);
  EXPECT_EQ(mask_of(4), 0b1111u);
  EXPECT_EQ(mask_of(10), 1023u);
  EXPECT_EQ(mask_of(kMaxIdBits), (1u << kMaxIdBits) - 1u);
}

TEST(Bits, SpaceSize) {
  EXPECT_EQ(space_size(1), 2u);
  EXPECT_EQ(space_size(4), 16u);
  EXPECT_EQ(space_size(10), 1024u);
}

TEST(Bits, Fits) {
  EXPECT_TRUE(fits(0b1111, 4));
  EXPECT_FALSE(fits(0b10000, 4));
  EXPECT_TRUE(fits(0, 1));
}

TEST(Bits, LeadingOnes) {
  EXPECT_EQ(leading_ones(0b1111, 4), 4);
  EXPECT_EQ(leading_ones(0b1110, 4), 3);
  EXPECT_EQ(leading_ones(0b1101, 4), 2);
  EXPECT_EQ(leading_ones(0b1011, 4), 1);
  EXPECT_EQ(leading_ones(0b0111, 4), 0);
  EXPECT_EQ(leading_ones(0b0000, 4), 0);
  EXPECT_EQ(leading_ones(mask_of(10), 10), 10);
}

TEST(Bits, HighestZeroBit) {
  EXPECT_EQ(highest_zero_bit(0b1111, 4), -1);
  EXPECT_EQ(highest_zero_bit(0b1110, 4), 0);
  EXPECT_EQ(highest_zero_bit(0b1011, 4), 2);
  EXPECT_EQ(highest_zero_bit(0b0111, 4), 3);
  EXPECT_EQ(highest_zero_bit(0b0000, 4), 3);
}

TEST(Bits, SetHighestZero) {
  // Property 2: the parent VID sets the highest 0-bit.
  EXPECT_EQ(set_highest_zero(0b0111, 4), 0b1111u);
  EXPECT_EQ(set_highest_zero(0b1011, 4), 0b1111u);
  EXPECT_EQ(set_highest_zero(0b1101, 4), 0b1111u);
  EXPECT_EQ(set_highest_zero(0b1110, 4), 0b1111u);
  EXPECT_EQ(set_highest_zero(0b0011, 4), 0b1011u);
  EXPECT_EQ(set_highest_zero(0b0000, 4), 0b1000u);
}

TEST(Bits, ClearAndTestBit) {
  EXPECT_EQ(clear_bit(0b1111, 2), 0b1011u);
  EXPECT_EQ(clear_bit(0b1011, 2), 0b1011u);
  EXPECT_TRUE(test_bit(0b0100, 2));
  EXPECT_FALSE(test_bit(0b0100, 1));
}

TEST(Bits, Complement) {
  EXPECT_EQ(complement(0b0100, 4), 0b1011u);  // the paper's 4̄ = 1011
  EXPECT_EQ(complement(0, 4), 0b1111u);
  EXPECT_EQ(complement(mask_of(10), 10), 0u);
  // Involution.
  for (std::uint32_t v = 0; v < 16; ++v) {
    EXPECT_EQ(complement(complement(v, 4), 4), v);
  }
}

TEST(Bits, BinaryRoundTrip) {
  EXPECT_EQ(to_binary(0b0101, 4), "0101");
  EXPECT_EQ(to_binary(0, 4), "0000");
  EXPECT_EQ(to_binary(mask_of(4), 4), "1111");
  for (std::uint32_t v = 0; v < 64; ++v) {
    EXPECT_EQ(std::stoul(to_binary(v, 6), nullptr, 2), v);
  }
}

TEST(Bits, MaxWidthBoundary) {
  // m = kMaxIdBits (30): the widest supported space; pure bit math only
  // (no containers are instantiated at this width).
  constexpr int m = kMaxIdBits;
  EXPECT_EQ(mask_of(m), 0x3FFFFFFFu);
  EXPECT_EQ(space_size(m), 1u << 30);
  EXPECT_EQ(leading_ones(mask_of(m), m), m);
  EXPECT_EQ(leading_ones(mask_of(m) >> 1, m), 0);
  EXPECT_EQ(leading_ones(mask_of(m) ^ 1u, m), m - 1);
  EXPECT_EQ(set_highest_zero(0u, m), 1u << (m - 1));
  EXPECT_EQ(complement(0u, m), mask_of(m));
}

TEST(Bits, MaxWidthVirtualTreeMath) {
  const lesslog::core::VirtualTree vt(kMaxIdBits);
  EXPECT_EQ(vt.root().value(), mask_of(kMaxIdBits));
  EXPECT_EQ(vt.child_count(vt.root()), kMaxIdBits);
  EXPECT_EQ(vt.subtree_size(vt.root()), space_size(kMaxIdBits));
  EXPECT_EQ(vt.depth(lesslog::core::Vid{0}), kMaxIdBits);
  // A full-depth path stays within the m-hop bound.
  EXPECT_EQ(vt.path_to_root(lesslog::core::Vid{0}).size(),
            static_cast<std::size_t>(kMaxIdBits) + 1u);
}

class LeadingOnesSweep : public ::testing::TestWithParam<int> {};

TEST_P(LeadingOnesSweep, ConsistentWithNaive) {
  const int m = GetParam();
  for (std::uint32_t v = 0; v < space_size(m); ++v) {
    int naive = 0;
    for (int bit = m - 1; bit >= 0 && test_bit(v, bit); --bit) ++naive;
    EXPECT_EQ(leading_ones(v, m), naive) << "v=" << v << " m=" << m;
  }
}

TEST_P(LeadingOnesSweep, ParentIncreasesValue) {
  const int m = GetParam();
  for (std::uint32_t v = 0; v < mask_of(m); ++v) {
    const std::uint32_t parent = set_highest_zero(v, m);
    EXPECT_GT(parent, v);
    EXPECT_EQ(popcount(parent), popcount(v) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LeadingOnesSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10));

TEST(Bits64, CtzClzTopBit) {
  EXPECT_EQ(top_set_bit64(1), 0);
  EXPECT_EQ(top_set_bit64(0b1010'0000), 7);
  EXPECT_EQ(top_set_bit64(~std::uint64_t{0}), 63);
  EXPECT_EQ(popcount64(0xF0F0'F0F0'F0F0'F0F0ULL), 32);
}

TEST(Bits64, XorPermuteMatchesBitwiseDefinition) {
  // bit j of xor_permute64(w, c) must equal bit (j ^ c) of w, for every c.
  std::uint64_t w = 0x0123'4567'89AB'CDEFULL;
  for (std::uint32_t c = 0; c < 64; ++c) {
    const std::uint64_t perm = xor_permute64(w, c);
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ((perm >> j) & 1u, (w >> (j ^ static_cast<int>(c))) & 1u)
          << "c=" << c << " j=" << j;
    }
  }
}

TEST(Bits64, XorPermuteIsAnInvolution) {
  const std::uint64_t w = 0xDEAD'BEEF'CAFE'F00DULL;
  for (std::uint32_t c = 0; c < 64; ++c) {
    EXPECT_EQ(xor_permute64(xor_permute64(w, c), c), w);
    EXPECT_EQ(popcount64(xor_permute64(w, c)), popcount64(w));
  }
}

TEST(Bits64, LowMask) {
  EXPECT_EQ(low_mask64(0), 0u);
  EXPECT_EQ(low_mask64(1), 1u);
  EXPECT_EQ(low_mask64(8), 0xFFu);
  EXPECT_EQ(low_mask64(63), ~std::uint64_t{0} >> 1);
  EXPECT_EQ(low_mask64(64), ~std::uint64_t{0});
}

TEST(Bits64, StrideMaskSelectsResidueClass) {
  for (int b = 0; b <= 6; ++b) {
    const std::uint32_t period = 1u << b;
    for (std::uint32_t offset = 0; offset < period; ++offset) {
      const std::uint64_t mask = stride_mask64(b, offset);
      for (int j = 0; j < 64; ++j) {
        const bool expect = (static_cast<std::uint32_t>(j) % period) == offset;
        ASSERT_EQ(((mask >> j) & 1u) != 0, expect)
            << "b=" << b << " offset=" << offset << " j=" << j;
      }
    }
  }
}

TEST(Bits64, SelectBit) {
  const std::uint64_t w = 0b1011'0100'1000'0001ULL;
  // Set bits, LSB first: 0, 7, 10, 12, 13, 15.
  EXPECT_EQ(select_bit64(w, 0), 0);
  EXPECT_EQ(select_bit64(w, 1), 7);
  EXPECT_EQ(select_bit64(w, 2), 10);
  EXPECT_EQ(select_bit64(w, 3), 12);
  EXPECT_EQ(select_bit64(w, 4), 13);
  EXPECT_EQ(select_bit64(w, 5), 15);
  EXPECT_EQ(select_bit64(~std::uint64_t{0}, 63), 63);
}

}  // namespace
}  // namespace lesslog::util
