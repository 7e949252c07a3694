// A move-only `void()` callable with inline small-buffer storage.
//
// The discrete-event hot path schedules one closure per simulated message
// (plus one per client timeout). `std::function` heap-allocates any
// capture over ~16 bytes and must stay copyable, so the old queue paid
// two allocations per message: one to create the closure and one when the
// priority queue copied it back out. InplaceEvent stores captures up to
// kInlineCapacity bytes directly inside the object, is move-only (moving
// relocates the capture, never copies it), and only falls back to the
// heap for oversized or throwing-move callables. The network's delivery
// event — a Network pointer plus the kWireSize wire buffer — is
// static_assert-ed to fit inline, which is what makes the steady-state
// wire path allocation-free.
//
// Lookahead. A callable may declare `void prefetch(int stage) const
// noexcept`, a hook that emits cache hints for the memory its call will
// touch. The event queue calls it on entries a few pops ahead of the one
// it runs, so the dependent DRAM misses of a cold event overlap with the
// work of the events before it. The hook reads its own capture and
// whatever that names, and writes nothing, so whether and when it runs
// cannot change what any event does.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lesslog::sim {

class InplaceEvent {
 public:
  /// Inline capture budget, sized for the largest hot-path event (the
  /// network DeliveryEvent: pointer + 43-byte wire buffer, padded to 56).
  static constexpr std::size_t kInlineCapacity = 56;

  /// True iff callables of type D are stored inline (no allocation):
  /// they must fit the buffer, not be over-aligned, and relocate without
  /// throwing (heap growth and sift moves rely on noexcept moves).
  template <typename D>
  [[nodiscard]] static constexpr bool stored_inline() noexcept {
    return sizeof(D) <= kInlineCapacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  /// True iff D declares the lookahead hook (see the header comment).
  template <typename D>
  static constexpr bool kHasPrefetch = requires(const D& d, int stage) {
    { d.prefetch(stage) } noexcept;
  };

  InplaceEvent() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceEvent> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  InplaceEvent(F&& fn) {
    if constexpr (stored_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vt_ = &kInlineVt<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vt_ = &kHeapVt<D>;
    }
  }

  /// Constructs a callable directly into this event's storage, replacing
  /// any current one. The schedule fast path emplaces straight into the
  /// arena slot, skipping the temporary-then-move relocates a by-value
  /// EventFn parameter would cost.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceEvent> &&
                                        std::is_invocable_r_v<void, D&>>>
  void emplace(F&& fn) {
    reset();
    if constexpr (stored_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vt_ = &kInlineVt<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vt_ = &kHeapVt<D>;
    }
  }

  InplaceEvent(InplaceEvent&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
  }

  InplaceEvent& operator=(InplaceEvent&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(storage_, other.storage_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  InplaceEvent(const InplaceEvent&) = delete;
  InplaceEvent& operator=(const InplaceEvent&) = delete;

  ~InplaceEvent() { reset(); }

  /// Invokes the stored callable. Precondition: non-empty.
  void operator()() {
    assert(vt_ != nullptr && "invoking an empty event");
    vt_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  /// Whether the current callable lives in the inline buffer (tests).
  [[nodiscard]] bool is_inline() const noexcept {
    return vt_ != nullptr && vt_->inline_storage;
  }

  /// Whether prefetch() reaches a hook: the callable declares one and is
  /// stored inline (tests).
  [[nodiscard]] bool has_prefetch() const noexcept {
    return vt_ != nullptr && vt_->prefetch != nullptr;
  }

  /// Runs the callable's lookahead hook for `stage`. A no-op for an
  /// empty event, a callable without a hook, and a heap-stored callable
  /// (reaching its capture would cost the very miss the hook hides).
  void prefetch(int stage) const noexcept {
    if (vt_ != nullptr && vt_->prefetch != nullptr) {
      vt_->prefetch(storage_, stage);
    }
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    /// Move-constructs into dst from src, then destroys src's callable.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    /// The lookahead hook, or null (see kHasPrefetch).
    void (*prefetch)(const void* storage, int stage) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr auto kPrefetchFn = [] {
    if constexpr (kHasPrefetch<D>) {
      return +[](const void* s, int stage) noexcept {
        static_cast<const D*>(s)->prefetch(stage);
      };
    } else {
      return static_cast<void (*)(const void*, int) noexcept>(nullptr);
    }
  }();

  template <typename D>
  static constexpr VTable kInlineVt{
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); },
      kPrefetchFn<D>,
      /*inline_storage=*/true};

  template <typename D>
  static constexpr VTable kHeapVt{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); },
      /*prefetch=*/nullptr,
      /*inline_storage=*/false};

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const VTable* vt_ = nullptr;
};

}  // namespace lesslog::sim
