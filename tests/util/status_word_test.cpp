#include "lesslog/util/status_word.hpp"

#include <gtest/gtest.h>

namespace lesslog::util {
namespace {

TEST(StatusWord, StartsAllDead) {
  const StatusWord sw(4);
  EXPECT_EQ(sw.capacity(), 16u);
  EXPECT_EQ(sw.live_count(), 0u);
  EXPECT_EQ(sw.dead_count(), 16u);
  for (std::uint32_t p = 0; p < 16; ++p) EXPECT_FALSE(sw.is_live(p));
}

TEST(StatusWord, BootstrapConstructor) {
  const StatusWord sw(4, 14);
  EXPECT_EQ(sw.live_count(), 14u);
  EXPECT_TRUE(sw.is_live(0));
  EXPECT_TRUE(sw.is_live(13));
  EXPECT_FALSE(sw.is_live(14));
  EXPECT_FALSE(sw.is_live(15));
}

TEST(StatusWord, SetLiveAndDead) {
  StatusWord sw(4);
  sw.set_live(5);
  EXPECT_TRUE(sw.is_live(5));
  EXPECT_EQ(sw.live_count(), 1u);
  sw.set_dead(5);
  EXPECT_FALSE(sw.is_live(5));
  EXPECT_EQ(sw.live_count(), 0u);
}

TEST(StatusWord, IdempotentTransitions) {
  StatusWord sw(4);
  sw.set_live(3);
  sw.set_live(3);
  EXPECT_EQ(sw.live_count(), 1u);
  sw.set_dead(3);
  sw.set_dead(3);
  EXPECT_EQ(sw.live_count(), 0u);
}

TEST(StatusWord, LivePidsSortedAndComplete) {
  StatusWord sw(4);
  for (std::uint32_t p : {1u, 8u, 3u, 15u}) sw.set_live(p);
  const std::vector<std::uint32_t> live = sw.live_pids();
  EXPECT_EQ(live, (std::vector<std::uint32_t>{1, 3, 8, 15}));
  EXPECT_EQ(sw.dead_count(), 12u);
}

TEST(StatusWord, FirstDead) {
  StatusWord sw(3, 8);
  EXPECT_EQ(sw.first_dead(), 8u);  // full space
  sw.set_dead(2);
  EXPECT_EQ(sw.first_dead(), 2u);
  sw.set_dead(0);
  EXPECT_EQ(sw.first_dead(), 0u);
}

TEST(StatusWord, Equality) {
  StatusWord a(4, 10);
  StatusWord b(4, 10);
  EXPECT_EQ(a, b);
  b.set_dead(9);
  EXPECT_NE(a, b);
}

TEST(StatusWord, LargeSpaceCrossesWordBoundaries) {
  StatusWord sw(10);
  for (std::uint32_t p = 60; p < 70; ++p) sw.set_live(p);
  EXPECT_EQ(sw.live_count(), 10u);
  EXPECT_TRUE(sw.is_live(63));
  EXPECT_TRUE(sw.is_live(64));
  EXPECT_FALSE(sw.is_live(70));
  sw.set_dead(64);
  EXPECT_FALSE(sw.is_live(64));
  EXPECT_TRUE(sw.is_live(65));
}

class StatusWordWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(StatusWordWidthSweep, CountsConsistent) {
  const int m = GetParam();
  StatusWord sw(m);
  std::uint32_t expected = 0;
  // Flip a deterministic pseudo-random subset and recount.
  for (std::uint32_t p = 0; p < sw.capacity(); ++p) {
    if ((p * 2654435761u) % 3u == 0) {
      sw.set_live(p);
      ++expected;
    }
  }
  EXPECT_EQ(sw.live_count(), expected);
  EXPECT_EQ(sw.live_pids().size(), expected);
  EXPECT_EQ(sw.dead_count(), sw.capacity() - expected);
}

INSTANTIATE_TEST_SUITE_P(Widths, StatusWordWidthSweep,
                         ::testing::Values(1, 2, 6, 7, 10, 12));

TEST(StatusWord, WordsExposePackedBits) {
  StatusWord sw(8);
  sw.set_live(0);
  sw.set_live(63);
  sw.set_live(64);
  sw.set_live(200);
  ASSERT_EQ(sw.word_count(), 4u);
  EXPECT_EQ(sw.words()[0], (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(sw.words()[1], 1u);
  EXPECT_EQ(sw.words()[2], 0u);
  EXPECT_EQ(sw.words()[3], std::uint64_t{1} << (200 - 192));
  sw.set_dead(63);
  EXPECT_EQ(sw.words()[0], 1u);
}

TEST(StatusWord, SubWordWidthKeepsHighBitsZero) {
  StatusWord sw(3);
  for (std::uint32_t p = 0; p < 8; ++p) sw.set_live(p);
  ASSERT_EQ(sw.word_count(), 1u);
  EXPECT_EQ(sw.words()[0], 0xFFu);
}

TEST(CowStatus, SharedSnapshotAliasesUntilMutation) {
  auto base = std::make_shared<StatusWord>(6, 40u);
  CowStatus a{std::shared_ptr<StatusWord>(base)};
  CowStatus b{std::shared_ptr<StatusWord>(base)};
  EXPECT_EQ(&a.read(), base.get());
  EXPECT_EQ(&b.read(), base.get());
  a.mutate().set_dead(7);
  EXPECT_NE(&a.read(), base.get());  // a diverged onto its own copy
  EXPECT_EQ(&b.read(), base.get());  // b still aliases the snapshot
  EXPECT_FALSE(a.read().is_live(7));
  EXPECT_TRUE(b.read().is_live(7));
  EXPECT_EQ(base->live_count(), 40u);
}

TEST(CowStatus, UniqueOwnerMutatesInPlace) {
  CowStatus a{StatusWord(5, 10u)};
  const StatusWord* before = &a.read();
  a.mutate().set_live(20);
  EXPECT_EQ(&a.read(), before);  // no other owner: no clone
  EXPECT_TRUE(a.read().is_live(20));
}

TEST(CowStatus, SnapshotPreservesOldBitsAcrossMutation) {
  CowStatus a{StatusWord(5, 10u)};
  const CowStatus before = a.snapshot();
  a.mutate().set_dead(3);
  EXPECT_TRUE(before.read().is_live(3));
  EXPECT_FALSE(a.read().is_live(3));
}

TEST(CowStatus, AssignReplacesContents) {
  auto base = std::make_shared<StatusWord>(4, 16u);
  CowStatus a{std::shared_ptr<StatusWord>(base)};
  a.assign(StatusWord(4, 2u));
  EXPECT_EQ(a.read().live_count(), 2u);
  EXPECT_EQ(base->live_count(), 16u);
}

}  // namespace
}  // namespace lesslog::util
