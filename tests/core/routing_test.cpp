#include "lesslog/core/routing.hpp"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "lesslog/util/rng.hpp"

namespace lesslog::core {
namespace {

util::StatusWord all_live(int m) {
  util::StatusWord live(m);
  for (std::uint32_t p = 0; p < live.capacity(); ++p) live.set_live(p);
  return live;
}

HasCopyFn copy_at(std::set<std::uint32_t> pids) {
  return [pids = std::move(pids)](Pid p) { return pids.contains(p.value()); };
}

TEST(FirstAliveAncestor, AllLiveIsPlainParent) {
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  EXPECT_EQ(first_alive_ancestor(tree, Pid{8}, live), Pid{0});
  EXPECT_EQ(first_alive_ancestor(tree, Pid{0}, live), Pid{4});
  EXPECT_EQ(first_alive_ancestor(tree, Pid{4}, live), std::nullopt);
}

TEST(FirstAliveAncestor, SkipsDeadAncestors) {
  const LookupTree tree(4, Pid{4});
  util::StatusWord live = all_live(4);
  live.set_dead(0);  // P(0) is P(8)'s parent in the tree of P(4)
  EXPECT_EQ(first_alive_ancestor(tree, Pid{8}, live), Pid{4});
}

TEST(FirstAliveAncestor, AllAncestorsDead) {
  const LookupTree tree(4, Pid{4});
  util::StatusWord live = all_live(4);
  live.set_dead(0);
  live.set_dead(4);
  EXPECT_EQ(first_alive_ancestor(tree, Pid{8}, live), std::nullopt);
}

TEST(AncestorChain, EndsAtLiveRoot) {
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  EXPECT_EQ(first_alive_ancestor(tree, Pid{8}, live), Pid{0});
  EXPECT_EQ(first_alive_ancestor(tree, Pid{0}, live), Pid{4});
  EXPECT_EQ(first_alive_ancestor(tree, Pid{4}, live), std::nullopt);
}

TEST(RouteGet, ServedAtRequesterWhenLocalCopy) {
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  const RouteResult r = route_get(tree, Pid{8}, live, copy_at({8}));
  EXPECT_EQ(r.served_by, Pid{8});
  EXPECT_EQ(r.hops(), 0);
  EXPECT_FALSE(r.used_fallback);
}

TEST(RouteGet, PaperRoutingExample) {
  // P(8) -> P(0) -> P(4) when only the target holds the file.
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  const RouteResult r = route_get(tree, Pid{8}, live, copy_at({4}));
  EXPECT_EQ(r.path, (std::vector<Pid>{Pid{8}, Pid{0}, Pid{4}}));
  EXPECT_EQ(r.served_by, Pid{4});
  EXPECT_EQ(r.hops(), 2);
}

TEST(RouteGet, ReplicaOnPathShortCircuits) {
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  const RouteResult r = route_get(tree, Pid{8}, live, copy_at({0, 4}));
  EXPECT_EQ(r.served_by, Pid{0});
  EXPECT_EQ(r.hops(), 1);
}

TEST(RouteGet, OffPathReplicaIsInvisible) {
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  // P(12) is not on P(8)'s path to P(4).
  const RouteResult r = route_get(tree, Pid{8}, live, copy_at({12, 4}));
  EXPECT_EQ(r.served_by, Pid{4});
}

TEST(RouteGet, FaultWhenNoCopyAnywhere) {
  const LookupTree tree(4, Pid{4});
  const util::StatusWord live = all_live(4);
  const RouteResult r = route_get(tree, Pid{8}, live, copy_at({}));
  EXPECT_EQ(r.served_by, std::nullopt);
  EXPECT_EQ(r.path.back(), Pid{4});  // walked all the way to the target
}

TEST(RouteGet, DeadRootFallsBackToStandIn) {
  // Paper scenario: P(4), P(5) dead; the file for target 4 lives at P(6).
  const LookupTree tree(4, Pid{4});
  util::StatusWord live = all_live(4);
  live.set_dead(4);
  live.set_dead(5);
  const RouteResult r = route_get(tree, Pid{8}, live, copy_at({6}));
  EXPECT_EQ(r.served_by, Pid{6});
  EXPECT_TRUE(r.used_fallback);
  EXPECT_EQ(r.path.back(), Pid{6});
}

TEST(RouteGet, DeadRootReplicaOnPathAvoidsFallback) {
  const LookupTree tree(4, Pid{4});
  util::StatusWord live = all_live(4);
  live.set_dead(4);
  live.set_dead(5);
  // P(0) is on P(8)'s walk; give it a replica.
  const RouteResult r = route_get(tree, Pid{8}, live, copy_at({0, 6}));
  EXPECT_EQ(r.served_by, Pid{0});
  EXPECT_FALSE(r.used_fallback);
}

TEST(RouteGet, StandInRequesterServesItself) {
  const LookupTree tree(4, Pid{4});
  util::StatusWord live = all_live(4);
  live.set_dead(4);
  live.set_dead(5);
  const RouteResult r = route_get(tree, Pid{6}, live, copy_at({6}));
  EXPECT_EQ(r.served_by, Pid{6});
  EXPECT_EQ(r.hops(), 0);
}

// gtest names each case after the raw bytes of its parameter, padding
// included. The padding is spelled out and zeroed so the names do not pick
// up stack garbage and stay the same from build to build.
struct RoutingCase {
  int m;
  std::uint32_t root;
  std::uint64_t seed;
  std::uint32_t dead;
  std::uint32_t pad0 = 0;
};
static_assert(std::has_unique_object_representations_v<RoutingCase>);

class RoutingSweep : public ::testing::TestWithParam<RoutingCase> {};

TEST_P(RoutingSweep, EveryLiveNodeReachesTheFile) {
  // Core liveness property: with the original copy placed by the insertion
  // rule, a request from any live node always finds the file.
  const auto [m, root, seed, dead_count, pad0] = GetParam();
  const LookupTree tree(m, Pid{root});
  util::StatusWord live = all_live(m);
  util::Rng rng(seed);
  for (std::uint32_t dead : rng.sample_indices(util::space_size(m),
                                               dead_count)) {
    live.set_dead(dead);
  }
  const std::optional<Pid> holder = insertion_target(tree, live);
  ASSERT_TRUE(holder.has_value());
  const HasCopyFn has_copy = [h = *holder](Pid p) { return p == h; };

  for (std::uint32_t k = 0; k < util::space_size(m); ++k) {
    if (!live.is_live(k)) continue;
    const RouteResult r = route_get(tree, Pid{k}, live, has_copy);
    EXPECT_EQ(r.served_by, *holder) << "k=" << k;
    // O(log N) bound: ancestor walk <= m hops, plus at most one fallback.
    EXPECT_LE(r.hops(), m + 1);
    // Every intermediate node is live.
    for (const Pid p : r.path) {
      EXPECT_TRUE(live.is_live(p.value()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RoutingSweep,
    ::testing::Values(RoutingCase{4, 4, 1, 0}, RoutingCase{4, 4, 2, 5},
                      RoutingCase{5, 9, 3, 10}, RoutingCase{6, 60, 4, 30},
                      RoutingCase{8, 100, 5, 100}, RoutingCase{8, 0, 6, 200},
                      RoutingCase{10, 512, 7, 300}));

TEST(AncestorTableTest, MatchesFirstAliveAncestorEverywhere) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const int m = 7;
    const LookupTree tree(m, Pid{static_cast<std::uint32_t>(seed * 17 + 3)});
    util::StatusWord live = all_live(m);
    util::Rng rng(seed);
    for (std::uint32_t dead :
         rng.sample_indices(util::space_size(m), 40)) {
      live.set_dead(dead);
    }
    const AncestorTable table = build_ancestor_table(tree, live);
    ASSERT_EQ(table.next.size(), util::space_size(m));
    for (std::uint32_t p = 0; p < util::space_size(m); ++p) {
      const std::optional<Pid> expected =
          first_alive_ancestor(tree, Pid{p}, live);
      if (expected.has_value()) {
        EXPECT_EQ(table.next[p], expected->value()) << "p=" << p;
      } else {
        EXPECT_EQ(table.next[p], AncestorTable::kNone) << "p=" << p;
      }
    }
    EXPECT_EQ(table.root, tree.root());
    EXPECT_EQ(table.root_live, live.is_live(tree.root().value()));
    if (!table.root_live) {
      const std::optional<Pid> holder = insertion_target(tree, live);
      ASSERT_TRUE(holder.has_value());
      EXPECT_EQ(table.fallback_holder, holder->value());
    }
  }
}

TEST(AncestorTableTest, FlatRouteGetMatchesRouteGet) {
  // The templated table walk must visit the same nodes and serve at the
  // same holder as route_get, over random liveness and copy placements —
  // including dead-root fallback and fault cases.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const int m = 6;
    const LookupTree tree(m, Pid{static_cast<std::uint32_t>(seed * 11)});
    util::StatusWord live = all_live(m);
    util::Rng rng(seed);
    for (std::uint32_t dead :
         rng.sample_indices(util::space_size(m), 20)) {
      live.set_dead(dead);
    }
    std::set<std::uint32_t> copies;
    for (int c = 0; c < 3; ++c) {
      const auto p =
          static_cast<std::uint32_t>(rng.bounded(util::space_size(m)));
      if (live.is_live(p)) copies.insert(p);
    }
    const AncestorTable table = build_ancestor_table(tree, live);
    const HasCopyFn slow_copy = copy_at(copies);
    for (std::uint32_t k = 0; k < util::space_size(m); ++k) {
      if (!live.is_live(k)) continue;
      const RouteResult slow = route_get(tree, Pid{k}, live, slow_copy);
      std::vector<Pid> forwards;
      const std::optional<Pid> fast = route_get(
          table, Pid{k},
          [&copies](Pid p) { return copies.contains(p.value()); },
          [&forwards](Pid p) { forwards.push_back(p); });
      EXPECT_EQ(fast, slow.served_by) << "seed=" << seed << " k=" << k;
      if (slow.served_by.has_value()) {
        // Forward calls are exactly the path nodes before the server.
        ASSERT_EQ(forwards.size(), slow.path.size() - 1);
        for (std::size_t i = 0; i < forwards.size(); ++i) {
          EXPECT_EQ(forwards[i], slow.path[i]) << "seed=" << seed;
        }
        EXPECT_EQ(static_cast<int>(forwards.size()), slow.hops());
      } else {
        // On a fault every visited node forwarded.
        EXPECT_EQ(forwards, slow.path) << "seed=" << seed << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace lesslog::core
