#include "lesslog/core/membership.hpp"

#include <gtest/gtest.h>

namespace lesslog::core {
namespace {

util::StatusWord all_live(int m) {
  util::StatusWord live(m);
  for (std::uint32_t p = 0; p < live.capacity(); ++p) live.set_live(p);
  return live;
}

TEST(AuthoritativeHolder, LiveRootHoldsItsOwnFiles) {
  const LookupTree tree(4, Pid{4});
  const SubtreeView view(tree, 0);
  const util::StatusWord live = all_live(4);
  EXPECT_EQ(view.insertion_target(0, live), Pid{4});
  EXPECT_EQ(view.insertion_targets(live), std::vector<Pid>{Pid{4}});
}

TEST(AuthoritativeHolder, DeadRootDelegatesToStandIn) {
  const LookupTree tree(4, Pid{4});
  const SubtreeView view(tree, 0);
  util::StatusWord live = all_live(4);
  live.set_dead(4);
  live.set_dead(5);
  EXPECT_EQ(view.insertion_target(0, live), Pid{6});
}

TEST(DiffHolders, NoChangeNoEntries) {
  const LookupTree tree(4, Pid{4});
  const SubtreeView view(tree, 0);
  const util::StatusWord live = all_live(4);
  EXPECT_TRUE(diff_holders(view, live, live).empty());
}

TEST(DiffHolders, IrrelevantDeathNoEntries) {
  const LookupTree tree(4, Pid{4});
  const SubtreeView view(tree, 0);
  const util::StatusWord before = all_live(4);
  util::StatusWord after = before;
  after.set_dead(12);  // a leaf of the tree of P(4): never a holder
  EXPECT_TRUE(diff_holders(view, before, after).empty());
}

TEST(DiffHolders, HolderDeathProducesMove) {
  const LookupTree tree(4, Pid{4});
  const SubtreeView view(tree, 0);
  const util::StatusWord before = all_live(4);
  util::StatusWord after = before;
  after.set_dead(4);
  const std::vector<HolderChange> changes = diff_holders(view, before, after);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].sub_id, 0u);
  EXPECT_EQ(changes[0].from, Pid{4});
  EXPECT_EQ(changes[0].to, Pid{5});  // next-largest VID (vid 1110)
}

TEST(DiffHolders, JoinReclaimsHolderRole) {
  // Paper 5.1 example: P(4) and P(5) dead, f stored at P(6); when P(5)
  // joins, f must be copied to P(5) (the new largest live VID).
  const LookupTree tree(4, Pid{4});
  const SubtreeView view(tree, 0);
  util::StatusWord before = all_live(4);
  before.set_dead(4);
  before.set_dead(5);
  util::StatusWord after = before;
  after.set_live(5);
  const std::vector<HolderChange> changes = diff_holders(view, before, after);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].from, Pid{6});
  EXPECT_EQ(changes[0].to, Pid{5});
}

TEST(DiffHolders, SubtreeLosingLastNode) {
  const LookupTree tree(3, Pid{1});
  const SubtreeView view(tree, 1);
  util::StatusWord before(3);
  // Only two nodes, both in subtree 0 of the tree of P(1)?  Build
  // explicitly: find two pids in subtree 0 and none in subtree 1.
  std::vector<std::uint32_t> sub0;
  for (std::uint32_t p = 0; p < 8; ++p) {
    if (view.subtree_id(Pid{p}) == 0) sub0.push_back(p);
  }
  before.set_live(sub0[0]);
  before.set_live(sub0[1]);
  util::StatusWord after = before;
  after.set_dead(sub0[0]);
  after.set_dead(sub0[1]);
  const std::vector<HolderChange> changes = diff_holders(view, before, after);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].to, std::nullopt);
}

TEST(DiffHolders, PerSubtreeIndependence) {
  const LookupTree tree(4, Pid{4});
  const SubtreeView view(tree, 2);
  const util::StatusWord before = all_live(4);
  util::StatusWord after = before;
  const Pid victim = view.subtree_root(1);
  after.set_dead(victim.value());
  const std::vector<HolderChange> changes = diff_holders(view, before, after);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].sub_id, 1u);
  EXPECT_EQ(changes[0].from, victim);
  ASSERT_TRUE(changes[0].to.has_value());
  EXPECT_EQ(view.subtree_id(*changes[0].to), 1u);
}

TEST(BroadcastCost, CountsOtherLiveNodes) {
  EXPECT_EQ(broadcast_cost(util::StatusWord(4, 0)), 0);
  EXPECT_EQ(broadcast_cost(util::StatusWord(4, 1)), 0);
  EXPECT_EQ(broadcast_cost(util::StatusWord(4, 14)), 13);
}

}  // namespace
}  // namespace lesslog::core
