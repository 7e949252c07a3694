// Boundary configurations: minimal ID spaces, maximal fault bits, single
// live nodes, full spaces — the places bit arithmetic goes wrong first.
#include <gtest/gtest.h>

#include <set>

#include "lesslog/core/system.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::core {
namespace {

TEST(EdgeCases, SmallestIdSpace) {
  // m = 1: two slots, the tree is root + one leaf.
  const VirtualTree vt(1);
  EXPECT_EQ(vt.root(), Vid{1});
  EXPECT_EQ(vt.children(Vid{1}), std::vector<Vid>{Vid{0}});
  EXPECT_TRUE(vt.is_leaf(Vid{0}));
  EXPECT_EQ(vt.parent(Vid{0}), Vid{1});

  System sys({.m = 1, .b = 0, .seed = 1});
  sys.bootstrap(2);
  const FileId f = sys.insert_at(Pid{1});
  EXPECT_TRUE(sys.get(f, Pid{0}).ok());
  EXPECT_TRUE(sys.get(f, Pid{1}).ok());
}

TEST(EdgeCases, SingleLiveNodeServesEverything) {
  System sys({.m = 4, .b = 0, .seed = 2});
  sys.bootstrap(16);
  for (std::uint32_t p = 1; p < 16; ++p) sys.leave(Pid{p});
  ASSERT_EQ(sys.live_count(), 1u);
  const FileId f = sys.insert_at(Pid{9});  // dead target
  EXPECT_EQ(sys.holders(f), std::vector<Pid>{Pid{0}});
  const auto got = sys.get(f, Pid{0});
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.route.hops(), 0);
}

TEST(EdgeCases, MaximalFaultBits) {
  // b = m - 1: subtree width 1, every subtree is a pair {root}, i.e.
  // 2^(m-1) subtrees of two VIDs... width 1 means two nodes per subtree?
  // subtree_width = 1 -> 2 subtree VIDs per subtree.
  const int m = 4;
  System sys({.m = m, .b = m - 1, .seed = 3});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{6});
  EXPECT_EQ(sys.holders(f).size(), 8u);  // 2^(m-1) copies
  for (std::uint32_t k = 0; k < 16; ++k) {
    const auto got = sys.get(f, Pid{k});
    EXPECT_TRUE(got.ok());
    EXPECT_LE(got.route.hops(), 1);  // width-1 subtrees: at most one hop
  }
}

TEST(EdgeCases, MaximalFaultBitsSurvivesHeavyCrashes) {
  const int m = 4;
  System sys({.m = m, .b = m - 1, .seed = 4});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{6});
  util::Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const std::vector<std::uint32_t> live = sys.status().live_pids();
    sys.fail(Pid{live[rng.bounded(live.size())]});
  }
  EXPECT_TRUE(sys.lost_files().empty());
  for (const std::uint32_t k : sys.status().live_pids()) {
    EXPECT_TRUE(sys.get(f, Pid{k}).ok());
  }
}

TEST(EdgeCases, FullSpaceJoinRejectsNone) {
  System sys({.m = 3, .b = 0, .seed = 5});
  sys.bootstrap(8);
  EXPECT_EQ(sys.status().first_dead(), 8u);  // nothing free
}

TEST(EdgeCases, TargetEqualsRequester) {
  System sys({.m = 5, .b = 0, .seed = 6});
  sys.bootstrap(32);
  const FileId f = sys.insert_at(Pid{17});
  const auto got = sys.get(f, Pid{17});
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.route.hops(), 0);
  EXPECT_EQ(sys.node(Pid{17}).served(), 1u);
}

TEST(EdgeCases, RepeatedLeaveJoinOfSameNode) {
  System sys({.m = 4, .b = 1, .seed = 7});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  for (int cycle = 0; cycle < 5; ++cycle) {
    sys.leave(Pid{4});
    EXPECT_TRUE(sys.get(f, Pid{1}).ok());
    sys.join(Pid{4});
    EXPECT_TRUE(sys.get(f, Pid{1}).ok());
  }
  EXPECT_TRUE(sys.lost_files().empty());
  EXPECT_TRUE(sys.verify_integrity().clean());
}

TEST(EdgeCases, InsertIntoEmptySystemIsLost) {
  System sys({.m = 4, .b = 0, .seed = 8});
  const FileId f = sys.insert_at(Pid{3});
  EXPECT_EQ(sys.lost_files(), std::vector<FileId>{f});
  // A later join cannot resurrect data that never existed anywhere.
  sys.join(Pid{3});
  EXPECT_EQ(sys.lost_files(), std::vector<FileId>{f});
}

TEST(EdgeCases, ReplicateAtEveryNodeThenPrune) {
  System sys({.m = 3, .b = 0, .seed = 9});
  sys.bootstrap(8);
  const FileId f = sys.insert_at(Pid{5});
  // Saturate the whole space with replicas.
  for (int i = 0; i < 16; ++i) {
    std::optional<Pid> placed;
    for (const Pid h : sys.holders(f)) {
      placed = sys.replicate(f, h);
      if (placed.has_value()) break;
    }
    if (!placed.has_value()) break;
  }
  EXPECT_EQ(sys.holders(f).size(), 8u);
  // Every copy but the target's inserted one is a replica, which a
  // replica-only prune could drop.
  for (const Pid h : sys.holders(f)) {
    EXPECT_EQ(sys.node(h).store().info(f)->kind,
              h == Pid{5} ? CopyKind::kInserted : CopyKind::kReplica);
  }
}

TEST(EdgeCases, UpdateOnLostFileIsSafe) {
  System sys({.m = 4, .b = 0, .seed = 10});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  sys.fail(Pid{4});
  const auto out = sys.update(f);
  EXPECT_EQ(out.copies_updated, 0);
}

}  // namespace
}  // namespace lesslog::core
