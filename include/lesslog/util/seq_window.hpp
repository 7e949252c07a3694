// An open-addressed map for monotonically increasing integer keys.
//
// The client keys every pending request by an id drawn from one striped,
// strictly increasing counter, and a request stays pending only for a few
// retry rounds — so at any instant the live keys occupy a narrow sliding
// window of the id space. SeqWindow exploits that: a power-of-two ring
// indexed by `id & mask`, grown only when the live span outruns the
// capacity. find/insert/erase are a single mask + compare (no hashing, no
// modulo, no per-node allocation), which matters because the wire hot
// path performs one find per delivered reply and per armed timeout.
//
// Keys inserted must be strictly increasing. Keys never inserted (the
// counter may be shared with a sibling window) simply leave holes that
// the window slides over.
//
// The ring starts at one slot and doubles on demand. Most windows hold
// at most one live key at a time (a swarm client with one GET in
// flight), and a ring once grown is never shrunk, so a larger first ring
// would be paid by every instance that ever inserts, for good.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace lesslog::util {

template <typename T>
class SeqWindow {
 public:
  /// Inserts `value` under `id` and returns the stored slot. `id` must be
  /// strictly greater than every id ever inserted.
  T& insert(std::uint64_t id, T value) {
    assert((size_ == 0 || id >= high_) && "ids must be inserted in order");
    if (size_ == 0) base_ = id;
    if (slots_.empty() || id - base_ >= slots_.size()) grow(id);
    Slot& s = slots_[index_of(id)];
    assert(!s.value.has_value() && "duplicate id");
    s.id = id;
    s.value.emplace(std::move(value));
    high_ = id + 1;
    ++size_;
    return *s.value;
  }

  /// Pointer to the value stored under `id`, or nullptr.
  [[nodiscard]] T* find(std::uint64_t id) noexcept {
    if (size_ == 0 || id < base_ || id >= high_) return nullptr;
    Slot& s = slots_[index_of(id)];
    if (!s.value.has_value() || s.id != id) return nullptr;
    return &*s.value;
  }

  /// Erases `id` if present; returns true when something was erased.
  bool erase(std::uint64_t id) noexcept {
    if (size_ == 0 || id < base_ || id >= high_) return false;
    Slot& s = slots_[index_of(id)];
    if (!s.value.has_value() || s.id != id) return false;
    s.value.reset();
    --size_;
    // Slide the window past the freed front (and over never-inserted
    // holes) so the live span — and therefore the ring — stays small.
    if (size_ == 0) {
      base_ = high_;
    } else if (id == base_) {
      while (base_ < high_) {
        const Slot& front = slots_[index_of(base_)];
        if (front.value.has_value() && front.id == base_) break;
        ++base_;
      }
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots in the ring (0 until the first insert).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
    base_ = high_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t id = 0;
    std::optional<T> value;
  };

  [[nodiscard]] std::size_t index_of(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>(id) & (slots_.size() - 1);
  }

  void grow(std::uint64_t upcoming) {
    std::size_t cap = slots_.empty() ? kInitialCapacity : slots_.size();
    while (upcoming - base_ >= cap) cap *= 2;
    std::vector<Slot> grown(cap);
    for (Slot& s : slots_) {
      if (!s.value.has_value()) continue;
      Slot& dst = grown[static_cast<std::size_t>(s.id) & (cap - 1)];
      dst.id = s.id;
      dst.value = std::move(s.value);
    }
    slots_.swap(grown);
  }

  static constexpr std::size_t kInitialCapacity = 1;

  std::vector<Slot> slots_;  ///< power-of-two ring (or empty)
  std::size_t size_ = 0;
  std::uint64_t base_ = 0;  ///< smallest possibly-live id
  std::uint64_t high_ = 0;  ///< one past the largest id ever inserted
};

}  // namespace lesslog::util
