#include "lesslog/core/children_list.hpp"

#include <gtest/gtest.h>

#include <set>

#include "lesslog/util/rng.hpp"

namespace lesslog::core {
namespace {

util::StatusWord all_live(int m) {
  util::StatusWord live(m);
  for (std::uint32_t p = 0; p < live.capacity(); ++p) live.set_live(p);
  return live;
}

TEST(ChildrenList, BasicModelMatchesTreeChildren) {
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  EXPECT_EQ(children_list(tree, Pid{4}, live), tree.children(Pid{4}));
  EXPECT_EQ(children_list(tree, Pid{4}, live),
            (std::vector<Pid>{Pid{5}, Pid{6}, Pid{0}, Pid{12}}));
}

TEST(ChildrenList, PaperAdvancedModelExample) {
  // Figure 3: a 14-node system with P(0) and P(5) dead. The children list
  // of P(4) is (P(6), P(7), P(1), P(12), P(13), P(8)), sorted by VID.
  const LookupTree tree(4, Pid{4});
  util::StatusWord live = all_live(4);
  live.set_dead(0);
  live.set_dead(5);
  EXPECT_EQ(children_list(tree, Pid{4}, live),
            (std::vector<Pid>{Pid{6}, Pid{7}, Pid{1}, Pid{12}, Pid{13},
                              Pid{8}}));
}

TEST(ChildrenList, DeadLeafContributesNothing) {
  const LookupTree tree(4, Pid{4});
  util::StatusWord live = all_live(4);
  live.set_dead(12);  // P(12) is the leaf child (VID 0111) of P(4)
  EXPECT_EQ(children_list(tree, Pid{4}, live),
            (std::vector<Pid>{Pid{5}, Pid{6}, Pid{0}}));
}

TEST(ChildrenList, LeafHasEmptyList) {
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  EXPECT_TRUE(children_list(tree, Pid{12}, live).empty());
}

TEST(ChildrenList, EntriesAreAlwaysLive) {
  const LookupTree tree(5, Pid{13});
  util::StatusWord live = all_live(5);
  util::Rng rng(5);
  for (std::uint32_t dead : rng.sample_indices(32, 12)) live.set_dead(dead);
  for (std::uint32_t p = 0; p < 32; ++p) {
    for (const Pid c : children_list(tree, Pid{p}, live)) {
      EXPECT_TRUE(live.is_live(c.value()));
    }
  }
}

TEST(ChildrenList, SortedByDescendingVid) {
  const LookupTree tree(6, Pid{40});
  util::StatusWord live = all_live(6);
  util::Rng rng(9);
  for (std::uint32_t dead : rng.sample_indices(64, 20)) live.set_dead(dead);
  for (std::uint32_t p = 0; p < 64; ++p) {
    const std::vector<Pid> list = children_list(tree, Pid{p}, live);
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_GT(tree.vid_of(list[i - 1]).value(),
                tree.vid_of(list[i]).value());
    }
  }
}

TEST(ChildrenList, CoversLiveFrontierOfSubtree) {
  // The advanced children list of k contains exactly the live descendants
  // of k whose strict ancestors below k are all dead.
  const LookupTree tree(5, Pid{7});
  util::StatusWord live = all_live(5);
  for (std::uint32_t dead : {3u, 12u, 19u, 30u, 8u}) live.set_dead(dead);
  const VirtualTree& vt = tree.virtual_tree();

  for (std::uint32_t k = 0; k < 32; ++k) {
    const Vid kv = tree.vid_of(Pid{k});
    std::set<Pid> expected;
    for (const Vid sv : vt.subtree_vids(kv)) {
      if (sv == kv) continue;
      const Pid p = tree.pid_of(sv);
      if (!live.is_live(p.value())) continue;
      // Walk ancestors strictly between sv and kv.
      bool frontier = true;
      Vid cur = sv;
      while (true) {
        cur = vt.parent(cur);
        if (cur == kv) break;
        if (!vt.in_subtree(cur, kv)) break;
        if (live.is_live(tree.pid_of(cur).value())) {
          frontier = false;
          break;
        }
      }
      if (frontier && vt.in_subtree(sv, kv)) expected.insert(p);
    }
    const std::vector<Pid> list = children_list(tree, Pid{k}, live);
    EXPECT_EQ(std::set<Pid>(list.begin(), list.end()), expected)
        << "k=" << k;
  }
}

TEST(ExpandChildrenList, GenericFormAgreesWithTreeForm) {
  const LookupTree tree(5, Pid{11});
  util::StatusWord live = all_live(5);
  live.set_dead(4);
  live.set_dead(27);
  const auto pid_of = [&tree](Vid v) { return tree.pid_of(v); };
  for (std::uint32_t k = 0; k < 32; ++k) {
    const std::vector<Vid> vids = expand_children_list(
        tree.virtual_tree(), tree.vid_of(Pid{k}), pid_of, live);
    std::vector<Pid> pids;
    pids.reserve(vids.size());
    for (const Vid v : vids) pids.push_back(tree.pid_of(v));
    EXPECT_EQ(pids, children_list(tree, Pid{k}, live));
  }
}

}  // namespace
}  // namespace lesslog::core
