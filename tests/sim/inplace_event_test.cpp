#include "lesslog/sim/inplace_event.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>

namespace lesslog::sim {
namespace {

// Counts live instances so storage handling (inline vs heap, moves,
// emplace-over, destruction) can be observed from outside.
struct Tracked {
  int* live;
  int* calls;
  explicit Tracked(int* l, int* c) noexcept : live(l), calls(c) { ++*live; }
  Tracked(Tracked&& o) noexcept : live(o.live), calls(o.calls) { ++*live; }
  Tracked(const Tracked& o) noexcept : live(o.live), calls(o.calls) {
    ++*live;
  }
  ~Tracked() { --*live; }
  void operator()() const { ++*calls; }
};

TEST(InplaceEvent, SmallCallableStoredInline) {
  int hits = 0;
  InplaceEvent ev([&hits] { ++hits; });
  EXPECT_TRUE(ev.is_inline());
  EXPECT_TRUE(static_cast<bool>(ev));
  ev();
  ev();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceEvent, OversizedCallableFallsBackToHeap) {
  std::array<std::uint8_t, InplaceEvent::kInlineCapacity + 8> big{};
  big[0] = 7;
  int sum = 0;
  InplaceEvent ev([big, &sum] { sum += big[0]; });
  EXPECT_FALSE(ev.is_inline());
  ev();
  EXPECT_EQ(sum, 7);
}

TEST(InplaceEvent, ThrowingMoveCallableFallsBackToHeap) {
  struct ThrowingMove {
    ThrowingMove() = default;
    // NOLINTNEXTLINE(performance-noexcept-move-constructor)
    ThrowingMove(ThrowingMove&&) {}
    void operator()() const {}
  };
  static_assert(!InplaceEvent::stored_inline<ThrowingMove>());
  InplaceEvent ev(ThrowingMove{});
  EXPECT_FALSE(ev.is_inline());
}

TEST(InplaceEvent, MoveTransfersTheCallable) {
  int live = 0;
  int calls = 0;
  {
    InplaceEvent a{Tracked(&live, &calls)};
    InplaceEvent b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    InplaceEvent c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
    c();
    EXPECT_EQ(calls, 2);
    EXPECT_GE(live, 1);
  }
  EXPECT_EQ(live, 0);  // every copy/move of the capture was destroyed
}

TEST(InplaceEvent, EmplaceDestroysThePreviousCallable) {
  int live_a = 0;
  int live_b = 0;
  int calls = 0;
  InplaceEvent ev{Tracked(&live_a, &calls)};
  ASSERT_GE(live_a, 1);
  ev.emplace(Tracked(&live_b, &calls));
  EXPECT_EQ(live_a, 0);
  EXPECT_GE(live_b, 1);
  ev();
  EXPECT_EQ(calls, 1);
}

TEST(InplaceEvent, HeapCallableIsFreedOnDestruction) {
  int live = 0;
  int calls = 0;
  struct Big {
    Tracked t;
    std::array<std::uint8_t, InplaceEvent::kInlineCapacity> pad{};
    void operator()() const { t(); }
  };
  static_assert(!InplaceEvent::stored_inline<Big>());
  {
    InplaceEvent ev{Big{Tracked(&live, &calls), {}}};
    EXPECT_FALSE(ev.is_inline());
    ev();
    EXPECT_EQ(calls, 1);
    EXPECT_GE(live, 1);
  }
  EXPECT_EQ(live, 0);
}

// The shape of the network's delivery event (object pointer + 43-byte
// wire image) must stay inside the inline budget — this is what keeps
// the steady-state wire path allocation-free.
TEST(InplaceEvent, DeliveryShapedCallableFitsInline) {
  struct DeliveryShaped {
    void* net;
    std::array<std::uint8_t, 43> wire;
    void operator()() const {}
  };
  static_assert(InplaceEvent::stored_inline<DeliveryShaped>());
  InplaceEvent ev(DeliveryShaped{nullptr, {}});
  EXPECT_TRUE(ev.is_inline());
}

// -- The lookahead hook --------------------------------------------------

// A callable that declares the hook. Recording the stage through a
// pointer is a test device: a real hook only emits cache hints.
template <std::size_t kPad>
struct Prefetching {
  int* stage_seen;
  std::array<std::uint8_t, kPad> pad{};
  void operator()() const {}
  void prefetch(int stage) const noexcept { *stage_seen = stage; }
};

TEST(InplaceEvent, ExposesAPrefetchEntryOnlyWhenTheCallableDeclaresOne) {
  static_assert(InplaceEvent::kHasPrefetch<Prefetching<8>>);
  int stage = -1;
  const InplaceEvent with(Prefetching<8>{&stage});
  ASSERT_TRUE(with.is_inline());
  EXPECT_TRUE(with.has_prefetch());
  with.prefetch(1);
  EXPECT_EQ(stage, 1);
  with.prefetch(0);
  EXPECT_EQ(stage, 0);

  int calls = 0;
  const auto plain = [&calls] { ++calls; };
  static_assert(!InplaceEvent::kHasPrefetch<decltype(plain)>);
  const InplaceEvent without(plain);
  EXPECT_FALSE(without.has_prefetch());
  without.prefetch(0);  // no entry: nothing runs
  EXPECT_EQ(calls, 0);
}

TEST(InplaceEvent, PrefetchOfAnEmptyOrHeapStoredEventIsANoOp) {
  const InplaceEvent empty{};
  EXPECT_FALSE(empty.has_prefetch());
  empty.prefetch(0);
  empty.prefetch(1);

  // Too big for the inline buffer: the hook exists but is not reached,
  // since reading the capture would cost the miss it is meant to hide.
  using Big = Prefetching<InplaceEvent::kInlineCapacity>;
  static_assert(!InplaceEvent::stored_inline<Big>());
  int stage = -1;
  const InplaceEvent heap(Big{&stage});
  ASSERT_FALSE(heap.is_inline());
  EXPECT_FALSE(heap.has_prefetch());
  heap.prefetch(0);
  heap.prefetch(1);
  EXPECT_EQ(stage, -1);
}

}  // namespace
}  // namespace lesslog::sim
