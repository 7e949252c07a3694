// The block property (docs/ALGORITHM.md §7): every subtree of a physical
// lookup tree, and of each fault-tolerant subtree, is one aligned block of
// 2^L PIDs in bit-reversed PID order, where L is the number of leading
// ones of the subtree root's (subtree) VID. Checked for every node of
// every tree at m <= 6 and of 64 sampled trees per (m, b) above: the
// subtree has exactly 2^L nodes and each of them lies in the block.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/core/virtual_tree.hpp"
#include "lesslog/util/bits.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::core {
namespace {

std::uint32_t reversed(std::uint32_t v, int m) {
  std::uint32_t r = 0;
  for (int i = 0; i < m; ++i) r |= ((v >> i) & 1u) << (m - 1 - i);
  return r;
}

/// The block [first, first + size) of bit-reversed PIDs that the subtree
/// of P(pid) should be, given its VID in a `width`-bit (sub)tree.
struct Block {
  std::uint32_t first;
  std::uint32_t size;

  [[nodiscard]] bool holds(std::uint32_t pid, int m) const {
    return reversed(pid, m) - first < size;
  }
};

Block block_of(std::uint32_t pid, std::uint32_t vid, int width, int m) {
  const std::uint32_t size = std::uint32_t{1}
                             << util::leading_ones(vid, width);
  return {reversed(pid, m) & ~(size - 1u), size};
}

std::vector<std::uint32_t> roots(int m) {
  if (m <= 6) {
    std::vector<std::uint32_t> all(util::space_size(m));
    for (std::uint32_t r = 0; r < all.size(); ++r) all[r] = r;
    return all;
  }
  util::Rng rng(static_cast<std::uint64_t>(m));
  return rng.sample_indices(util::space_size(m), 64);
}

TEST(BlockProperty, LookupTreeSubtreesAreReversedBlocks) {
  for (int m = 1; m <= 10; ++m) {
    for (const std::uint32_t root : roots(m)) {
      const LookupTree tree(m, Pid{root});
      const std::string where =
          "m=" + std::to_string(m) + " root=" + std::to_string(root);
      for (std::uint32_t k = 0; k < util::space_size(m); ++k) {
        const Block b = block_of(k, tree.vid_of(Pid{k}).value(), m, m);
        ASSERT_EQ(b.size, tree.subtree_size(Pid{k})) << where << " k=" << k;
        ASSERT_EQ(b.first % b.size, 0u) << where << " k=" << k;
      }
      // Every node lies in the block of each of its ancestors.
      for (std::uint32_t d = 0; d < util::space_size(m); ++d) {
        for (Pid a{d};; a = tree.parent(a)) {
          const Block b =
              block_of(a.value(), tree.vid_of(a).value(), m, m);
          ASSERT_TRUE(b.holds(d, m))
              << where << " d=" << d << " ancestor=" << a.value();
          if (tree.is_root(a)) break;
        }
      }
    }
  }
}

TEST(BlockProperty, FaultTolerantSubtreesAreReversedBlocks) {
  for (int m = 1; m <= 10; ++m) {
    for (int b = 0; b <= 2 && b < m; ++b) {
      const int width = m - b;
      const VirtualTree sub_tree(width);
      const std::uint32_t top = util::mask_of(width);
      for (const std::uint32_t root : roots(m)) {
        const LookupTree tree(m, Pid{root});
        const SubtreeView view(tree, b);
        const std::string where = "m=" + std::to_string(m) +
                                  " b=" + std::to_string(b) +
                                  " root=" + std::to_string(root);
        for (std::uint32_t k = 0; k < util::space_size(m); ++k) {
          const std::uint32_t sv = view.subtree_vid(Pid{k});
          const Block blk = block_of(k, sv, width, m);
          ASSERT_EQ(blk.size, sub_tree.subtree_size(Vid{sv}))
              << where << " k=" << k;
          ASSERT_EQ(blk.first % blk.size, 0u) << where << " k=" << k;
        }
        for (std::uint32_t d = 0; d < util::space_size(m); ++d) {
          const std::uint32_t sid = view.subtree_id(Pid{d});
          for (std::uint32_t sv = view.subtree_vid(Pid{d});;
               sv = util::set_highest_zero(sv, width)) {
            const Pid a = view.pid_at(sv, sid);
            ASSERT_TRUE(block_of(a.value(), sv, width, m).holds(d, m))
                << where << " d=" << d << " ancestor=" << a.value();
            if (sv == top) break;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lesslog::core
