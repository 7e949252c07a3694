// Bit-manipulation primitives used throughout the LessLog ID space.
//
// All IDs in LessLog are m-bit unsigned values (m <= 30 in this
// implementation). The binomial lookup-tree structure is defined entirely in
// terms of runs of leading 1-bits within an m-bit window, so the helpers here
// all take the window width explicitly rather than operating on the full
// 32-bit word.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>

namespace lesslog::util {

/// Maximum supported ID-space width. 2^30 node slots is far beyond the
/// paper's experiments (m = 10) while keeping every ID in a uint32_t.
inline constexpr int kMaxIdBits = 30;

/// True iff `m` is a usable ID-space width.
[[nodiscard]] constexpr bool valid_width(int m) noexcept {
  return m >= 1 && m <= kMaxIdBits;
}

/// All-ones mask of the low `m` bits: 2^m - 1.
[[nodiscard]] constexpr std::uint32_t mask_of(int m) noexcept {
  return (std::uint32_t{1} << m) - 1u;
}

/// Number of values representable in `m` bits: 2^m.
[[nodiscard]] constexpr std::uint32_t space_size(int m) noexcept {
  return std::uint32_t{1} << m;
}

/// True iff `v` fits in `m` bits.
[[nodiscard]] constexpr bool fits(std::uint32_t v, int m) noexcept {
  return (v & ~mask_of(m)) == 0;
}

/// Length of the run of 1-bits starting at bit (m-1) and extending downward.
/// leading_ones(0b1101, 4) == 2; leading_ones(0b0111, 4) == 0;
/// leading_ones(0b1111, 4) == 4.
[[nodiscard]] constexpr int leading_ones(std::uint32_t v, int m) noexcept {
  // Shift the m-bit window to the top of the word, then count leading ones.
  return std::min(std::countl_one(v << (32 - m)), m);
}

/// Position (bit index) of the highest 0-bit of `v` within the m-bit window,
/// or -1 if v is all ones. The LessLog parent rule sets this bit.
[[nodiscard]] constexpr int highest_zero_bit(std::uint32_t v, int m) noexcept {
  const int ones = leading_ones(v, m);
  return ones == m ? -1 : m - 1 - ones;
}

/// Set the highest 0-bit within the m-bit window (Property 2: parent VID).
/// Precondition: v is not all-ones.
[[nodiscard]] constexpr std::uint32_t set_highest_zero(std::uint32_t v,
                                                       int m) noexcept {
  return v | (std::uint32_t{1} << highest_zero_bit(v, m));
}

/// Clear bit `pos` of v.
[[nodiscard]] constexpr std::uint32_t clear_bit(std::uint32_t v,
                                                int pos) noexcept {
  return v & ~(std::uint32_t{1} << pos);
}

/// Test bit `pos` of v.
[[nodiscard]] constexpr bool test_bit(std::uint32_t v, int pos) noexcept {
  return ((v >> pos) & 1u) != 0;
}

/// Number of set bits.
[[nodiscard]] constexpr int popcount(std::uint32_t v) noexcept {
  return std::popcount(v);
}

/// Bitwise complement within the m-bit window: ~v & mask. This is the
/// "complement of k" the paper uses to derive physical lookup trees.
[[nodiscard]] constexpr std::uint32_t complement(std::uint32_t v,
                                                 int m) noexcept {
  return ~v & mask_of(m);
}

/// True iff v is a power of two (exactly one set bit).
[[nodiscard]] constexpr bool is_pow2(std::uint32_t v) noexcept {
  return std::has_single_bit(v);
}

// --- 64-bit word helpers for the packed liveness bitmaps -------------------
//
// StatusWord stores liveness as one bit per PID in 64-bit words. FINDLIVENODE
// scans *VIDs*, and VID v maps to PID v ^ c (Property 4). Writing
// v = 64*wv + j, the XOR splits cleanly across the word boundary:
//
//   (v ^ c) / 64 = wv ^ (c / 64)      and      (v ^ c) % 64 = j ^ (c % 64)
//
// so the VID-order view of the bitmap is a word-index permutation combined
// with a *within-word* bit permutation by XOR with c % 64. The helpers below
// make that view scannable: xor_permute64 realigns one word into VID bit
// order, and top_set_bit64 finds the largest qualifying VID in it.

/// Index of the highest set bit. Precondition: w != 0.
[[nodiscard]] constexpr int top_set_bit64(std::uint64_t w) noexcept {
  return 63 - std::countl_zero(w);
}

/// Number of set bits.
[[nodiscard]] constexpr int popcount64(std::uint64_t w) noexcept {
  return std::popcount(w);
}

/// Permute the bits of `w` so that bit j of the result is bit (j ^ c) of
/// `w`, for 0 <= c < 64. An XOR permutation factors into at most six
/// delta-swaps (one per set bit of c), each a pair of masked shifts — no
/// loop over the 64 bits.
[[nodiscard]] constexpr std::uint64_t xor_permute64(std::uint64_t w,
                                                    std::uint32_t c) noexcept {
  if (c & 1u) {
    w = ((w >> 1) & 0x5555'5555'5555'5555ULL) |
        ((w & 0x5555'5555'5555'5555ULL) << 1);
  }
  if (c & 2u) {
    w = ((w >> 2) & 0x3333'3333'3333'3333ULL) |
        ((w & 0x3333'3333'3333'3333ULL) << 2);
  }
  if (c & 4u) {
    w = ((w >> 4) & 0x0F0F'0F0F'0F0F'0F0FULL) |
        ((w & 0x0F0F'0F0F'0F0F'0F0FULL) << 4);
  }
  if (c & 8u) {
    w = ((w >> 8) & 0x00FF'00FF'00FF'00FFULL) |
        ((w & 0x00FF'00FF'00FF'00FFULL) << 8);
  }
  if (c & 16u) {
    w = ((w >> 16) & 0x0000'FFFF'0000'FFFFULL) |
        ((w & 0x0000'FFFF'0000'FFFFULL) << 16);
  }
  if (c & 32u) w = (w >> 32) | (w << 32);
  return w;
}

/// Mask of the low `n` bits of a 64-bit word, 0 <= n <= 64.
[[nodiscard]] constexpr std::uint64_t low_mask64(int n) noexcept {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1u;
}

/// Repeating stride mask: bits j with j % 2^b == offset, for 0 <= b <= 6
/// and offset < 2^b. Selects one fault-tolerant subtree's VIDs out of a
/// packed word (the subtree identifier is the low b VID bits).
[[nodiscard]] constexpr std::uint64_t stride_mask64(
    int b, std::uint32_t offset) noexcept {
  constexpr std::uint64_t kPattern[7] = {
      ~std::uint64_t{0},           // b=0: every bit
      0x5555'5555'5555'5555ULL,    // b=1: every 2nd
      0x1111'1111'1111'1111ULL,    // b=2: every 4th
      0x0101'0101'0101'0101ULL,    // b=3: every 8th
      0x0001'0001'0001'0001ULL,    // b=4: every 16th
      0x0000'0001'0000'0001ULL,    // b=5: every 32nd
      0x0000'0000'0000'0001ULL,    // b=6: every 64th
  };
  return kPattern[b] << offset;
}

/// Index of the k-th (0-based, from the LSB) set bit of `w`.
/// Precondition: k < popcount(w). The candidate-selection step of the
/// random placement policy: the k-th live copy-free node in ascending PID
/// order within one word.
[[nodiscard]] constexpr int select_bit64(std::uint64_t w, int k) noexcept {
  for (; k > 0; --k) w &= w - 1;  // clear the k lowest set bits
  return std::countr_zero(w);
}

/// Render the low `m` bits of v MSB-first, e.g. to_binary(0b0101, 4) ==
/// "0101". Used by debug dumps and the structure-figure examples.
[[nodiscard]] std::string to_binary(std::uint32_t v, int m);

}  // namespace lesslog::util
