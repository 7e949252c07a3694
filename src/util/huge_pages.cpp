#include "lesslog/util/huge_pages.hpp"

#include <sys/mman.h>

#include <mutex>
#include <new>
#include <utility>

namespace lesslog::util {

namespace {

/// The largest block deallocate_huge() keeps for reuse: the record array
/// of a 2^17-PID swarm. A million-peer array is returned at once, and so
/// are blocks of one huge page or less (event-arena chunks). A kept
/// block that no later allocation of its size claims stays resident, so
/// the cap is also the most this can waste.
constexpr std::size_t kMaxKept = std::size_t{64} << 20;

/// The last freed block kept, for the next allocation of its size.
struct Kept {
  std::mutex mu;
  void* block = nullptr;
  std::size_t bytes = 0;
};

Kept& kept() {
  // Never destroyed: a swarm with static storage may free after exit
  // has begun tearing statics down.
  static Kept& k = *new Kept;
  return k;
}

}  // namespace

void* allocate_huge(std::size_t bytes) {
  {
    Kept& k = kept();
    const std::lock_guard<std::mutex> lock(k.mu);
    if (k.block != nullptr && k.bytes == bytes) {
      void* block = k.block;
      k.block = nullptr;
      return block;
    }
  }
  void* block = ::operator new(bytes, std::align_val_t{kHugePageSize});
  const std::size_t advised = bytes & ~(kHugePageSize - 1);
  if (advised > 0) {
    // Errors are ignored: without THP the block simply stays on 4 KB
    // pages.
    (void)::madvise(block, advised, MADV_HUGEPAGE);
  }
  return block;
}

void deallocate_huge(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (bytes > kHugePageSize && bytes <= kMaxKept) {
    // Keep this block; free the one kept before, if any.
    Kept& k = kept();
    const std::lock_guard<std::mutex> lock(k.mu);
    std::swap(block, k.block);
    std::swap(bytes, k.bytes);
  }
  if (block != nullptr) {
    ::operator delete(block, bytes, std::align_val_t{kHugePageSize});
  }
}

}  // namespace lesslog::util
