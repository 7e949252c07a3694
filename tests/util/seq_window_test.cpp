#include "lesslog/util/seq_window.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace lesslog::util {
namespace {

TEST(SeqWindow, StartsEmpty) {
  SeqWindow<int> w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.find(0), nullptr);
}

TEST(SeqWindow, InsertFindErase) {
  SeqWindow<std::string> w;
  w.insert(10, "a");
  w.insert(11, "b");
  ASSERT_NE(w.find(10), nullptr);
  EXPECT_EQ(*w.find(10), "a");
  EXPECT_EQ(*w.find(11), "b");
  EXPECT_EQ(w.find(9), nullptr);
  EXPECT_EQ(w.find(12), nullptr);
  EXPECT_TRUE(w.erase(10));
  EXPECT_FALSE(w.erase(10));
  EXPECT_EQ(w.find(10), nullptr);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SeqWindow, SkippedIdsLeaveHoles) {
  SeqWindow<int> w;
  w.insert(0, 0);
  w.insert(5, 5);  // 1..4 never inserted
  EXPECT_EQ(w.find(3), nullptr);
  EXPECT_EQ(*w.find(5), 5);
  EXPECT_TRUE(w.erase(0));
  // The window slides over the holes to the next live id.
  EXPECT_EQ(*w.find(5), 5);
  w.insert(6, 6);
  EXPECT_EQ(*w.find(6), 6);
}

TEST(SeqWindow, GrowsPastInitialCapacity) {
  SeqWindow<std::uint64_t> w;
  for (std::uint64_t id = 0; id < 100; ++id) w.insert(id, id * 3);
  EXPECT_EQ(w.size(), 100u);
  for (std::uint64_t id = 0; id < 100; ++id) {
    ASSERT_NE(w.find(id), nullptr) << id;
    EXPECT_EQ(*w.find(id), id * 3);
  }
}

TEST(SeqWindow, FirstRingIsOneSlotAndDoubles) {
  // One key in flight at a time (a client's lone GET) never grows the
  // ring past its first slot; a burst doubles it only as far as needed.
  SeqWindow<int> w;
  EXPECT_EQ(w.capacity(), 0u);
  for (std::uint64_t id = 0; id < 100; ++id) {
    w.insert(id, 1);
    EXPECT_TRUE(w.erase(id));
  }
  EXPECT_EQ(w.capacity(), 1u);
  for (std::uint64_t id = 100; id < 105; ++id) w.insert(id, 1);
  EXPECT_EQ(w.capacity(), 8u);
  for (std::uint64_t id = 100; id < 105; ++id) {
    ASSERT_NE(w.find(id), nullptr) << id;
  }
}

TEST(SeqWindow, SlidingUseStaysSmall) {
  // The hot-path pattern: insert a new id, erase an old one — the live
  // span stays narrow, so the ring never needs to grow after warm-up.
  SeqWindow<int> w;
  for (int id = 0; id < 4; ++id) w.insert(static_cast<std::uint64_t>(id), id);
  for (int id = 4; id < 5000; ++id) {
    w.insert(static_cast<std::uint64_t>(id), id);
    EXPECT_TRUE(w.erase(static_cast<std::uint64_t>(id - 4)));
    EXPECT_EQ(w.size(), 4u);
  }
  for (int id = 4996; id < 5000; ++id) {
    ASSERT_NE(w.find(static_cast<std::uint64_t>(id)), nullptr);
    EXPECT_EQ(*w.find(static_cast<std::uint64_t>(id)), id);
  }
}

TEST(SeqWindow, EraseLastThenReuseFarAhead) {
  SeqWindow<int> w;
  w.insert(7, 1);
  EXPECT_TRUE(w.erase(7));
  EXPECT_TRUE(w.empty());
  // After draining, ids may restart anywhere ahead.
  w.insert(1'000'000, 2);
  EXPECT_EQ(*w.find(1'000'000), 2);
  EXPECT_EQ(w.find(7), nullptr);
}

TEST(SeqWindow, ClearResets) {
  SeqWindow<int> w;
  for (std::uint64_t id = 0; id < 20; ++id) w.insert(id, 1);
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.find(5), nullptr);
  w.insert(3, 9);
  EXPECT_EQ(*w.find(3), 9);
}

}  // namespace
}  // namespace lesslog::util
