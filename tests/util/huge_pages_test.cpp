#include "lesslog/util/huge_pages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace lesslog::util {
namespace {

TEST(HugePages, BlocksAreHugePageAlignedAndWritable) {
  for (const std::size_t bytes : {std::size_t{4096}, kHugePageSize,
                                  3 * kHugePageSize + 512}) {
    void* block = allocate_huge(bytes);
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % kHugePageSize, 0u);
    std::memset(block, 0xA5, bytes);
    deallocate_huge(block, bytes);
  }
  deallocate_huge(nullptr, kHugePageSize);  // a no-op
}

TEST(HugePages, AFreedBlockServesTheNextAllocationOfItsSize) {
  // Successive swarms of one size reuse one block rather than leaving
  // holes in the heap.
  const std::size_t bytes = 4 * kHugePageSize;
  void* first = allocate_huge(bytes);
  deallocate_huge(first, bytes);
  void* other_size = allocate_huge(3 * kHugePageSize);
  EXPECT_NE(other_size, first);
  void* again = allocate_huge(bytes);
  EXPECT_EQ(again, first);
  // Freeing the other block now keeps it instead, and frees `again`.
  deallocate_huge(again, bytes);
  deallocate_huge(other_size, 3 * kHugePageSize);
  EXPECT_EQ(allocate_huge(3 * kHugePageSize), other_size);
  deallocate_huge(other_size, 3 * kHugePageSize);
}

}  // namespace
}  // namespace lesslog::util
