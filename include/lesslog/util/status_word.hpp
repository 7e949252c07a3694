// The "status word": a bitmap of node liveness.
//
// Section 5 of the paper maintains in each live node a status word where
// each bit indicates whether the corresponding PID is live. We model it as a
// compact dynamic bitset over the full 2^m ID space. Algorithms take a
// `const StatusWord&` view; the membership protocols (join/leave/fail) are
// the only writers.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lesslog/util/bits.hpp"

namespace lesslog::util {

class StatusWord {
 public:
  /// Creates a status word for an m-bit ID space with every slot dead.
  explicit StatusWord(int m);

  /// Creates a status word with slots [0, live_count) live and the rest
  /// dead — the common bootstrap in tests and experiments.
  StatusWord(int m, std::uint32_t live_count);

  [[nodiscard]] int width() const noexcept { return m_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return space_size(m_);
  }

  [[nodiscard]] bool is_live(std::uint32_t pid) const noexcept {
    return test_bit(words_[pid >> 6], static_cast<int>(pid & 63u));
  }

  void set_live(std::uint32_t pid) noexcept;
  void set_dead(std::uint32_t pid) noexcept;

  /// Number of live nodes.
  [[nodiscard]] std::uint32_t live_count() const noexcept { return live_; }
  [[nodiscard]] std::uint32_t dead_count() const noexcept {
    return capacity() - live_;
  }

  /// All live PIDs in ascending order.
  [[nodiscard]] std::vector<std::uint32_t> live_pids() const;

  /// Lowest dead PID, or capacity() if the space is full. Used by join to
  /// pick a valid PID.
  [[nodiscard]] std::uint32_t first_dead() const noexcept;

  /// The packed liveness words: bit (pid & 63) of word (pid >> 6) is the
  /// liveness of `pid`. For m < 6 the single word's bits above capacity()
  /// are zero. Word-granular access is what turns FINDLIVENODE's VID scan
  /// into a bit-scan (see core/find_live_node.cpp).
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return words_.data();
  }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }

  friend bool operator==(const StatusWord&, const StatusWord&) = default;

 private:
  static bool test_bit(std::uint64_t w, int pos) noexcept {
    return ((w >> pos) & 1u) != 0;
  }

  int m_;
  std::uint32_t live_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Copy-on-write handle to a StatusWord.
///
/// A swarm of 2^m peers each holding an identical 2^m-bit status word costs
/// 2^(2m-3) bytes — 512 MB at m = 16 — and every routing probe misses cache
/// because the copies are distinct allocations. Until the first divergence
/// (a crash/leave/join announcement reaches a peer), every peer's word has
/// the same *contents*, so they can all alias one immutable snapshot;
/// `mutate()` clones only when the snapshot is shared. Observable behaviour
/// is unchanged: read() always returns the same bits the by-value copy
/// would hold.
///
/// Thread-safety matches shared_ptr: concurrent reads of a shared snapshot
/// are safe, and a clone never writes the shared object. The in-place write
/// on use_count() == 1 is safe because a uniquely-owned snapshot has, by
/// definition, no other reader. (Handles are created/copied only during
/// swarm construction, never inside a parallel window.)
class CowStatus {
 public:
  /// Owning handle over a fresh copy of `w` (no sharing).
  explicit CowStatus(StatusWord w)
      : ptr_(std::make_shared<StatusWord>(std::move(w))) {}

  /// Aliasing handle over a shared snapshot.
  explicit CowStatus(std::shared_ptr<StatusWord> shared)
      : ptr_(std::move(shared)) {}

  [[nodiscard]] const StatusWord& read() const noexcept { return *ptr_; }

  /// Mutable access; clones the snapshot iff it is shared.
  [[nodiscard]] StatusWord& mutate() {
    if (ptr_.use_count() != 1) ptr_ = std::make_shared<StatusWord>(*ptr_);
    return *ptr_;
  }

  /// Replace the contents wholesale (rejoin resets to a caller snapshot).
  void assign(StatusWord w) { ptr_ = std::make_shared<StatusWord>(std::move(w)); }

  /// O(1) snapshot of the current contents — the cheap spelling of
  /// `StatusWord before = status;` on the announcement path. The snapshot
  /// keeps the current bits alive even if this handle mutates afterwards.
  [[nodiscard]] CowStatus snapshot() const noexcept { return CowStatus(ptr_); }

 private:
  std::shared_ptr<StatusWord> ptr_;
};

}  // namespace lesslog::util
