// Storage for large, randomly accessed arrays on transparent huge pages.
//
// The million-peer swarm touches a random peer record and a random event
// slot per delivered message. On 4 KB pages every such load also misses
// the TLB, and the page walk is itself a chain of dependent DRAM loads.
// A 2 MB page covers 512 times the address range per TLB entry. Hosts
// whose THP mode is `madvise` back a range with huge pages only when it
// is advised, so these helpers allocate 2 MB-aligned blocks and advise
// every whole 2 MB page inside them.
//
// The blocks come from the aligned operator new, not from raw mmap:
// sanitizers see them as heap blocks (LSan scans them for the pointers
// they hold), and freed memory is reused instead of faulting fresh pages
// in every time a small swarm is built. deallocate_huge() keeps the most
// recently freed block over 2 MB and up to 64 MB (a record array of up
// to 2^17 PIDs) for the next allocation of the same size, so programs
// that build swarm after swarm of one size (the churn benchmark's
// passes, tests) reuse one block. Handed back to glibc, the block leaves
// a hole that longer-lived allocations can split; the next swarm's array
// then grows the heap while the hole stays resident, 8 MB of extra peak
// RSS at m = 14.
//
// The advice is a hint. Where THP is absent or disabled, madvise fails
// and the block stays on 4 KB pages; the contents are the same either
// way.
#pragma once

#include <cstddef>

namespace lesslog::util {

/// The x86-64 transparent huge page size.
inline constexpr std::size_t kHugePageSize = std::size_t{2} << 20;

/// `bytes` of uninitialized storage at a 2 MB boundary. Every whole
/// 2 MB page inside the block is advised MADV_HUGEPAGE; a block smaller
/// than one huge page is not advised at all, so touching a few bytes of
/// it never makes 2 MB resident. Throws std::bad_alloc.
[[nodiscard]] void* allocate_huge(std::size_t bytes);

/// Frees a block from allocate_huge(`bytes`), or keeps it for the next
/// allocate_huge of the same size (see the header comment). Null is a
/// no-op. Both functions are thread-safe.
void deallocate_huge(void* block, std::size_t bytes) noexcept;

}  // namespace lesslog::util
