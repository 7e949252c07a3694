#include "lesslog/baseline/policy.hpp"

#include <gtest/gtest.h>

#include <set>

#include "lesslog/core/find_live_node.hpp"

namespace lesslog::baseline {
namespace {

using core::Pid;

struct Harness {
  explicit Harness(int m, std::uint32_t root, double rate = 1600.0)
      : tree(m, Pid{root}),
        view(tree, 0),
        live(m, util::space_size(m)),
        has_copy(util::space_size(m), 0),
        demand(sim::uniform_workload(util::BorrowedView(live), rate)),
        rng(17) {
    has_copy[root] = 1;
  }

  sim::PlacementContext ctx(Pid overloaded) {
    report = sim::solve_load(tree, has_copy, live, demand);
    return sim::PlacementContext{
        tree,     view,
        overloaded,
        live,     has_copy,
        [this]() -> const sim::LoadReport& { return report; },
        demand,   rng};
  }

  core::LookupTree tree;
  core::SubtreeView view;
  util::StatusWord live;
  sim::CopyMap has_copy;
  sim::Workload demand;
  sim::LoadReport report;
  util::Rng rng;
};

TEST(LessLogPolicy, MatchesCoreReplicationRule) {
  Harness h(4, 4);
  const sim::PlacementFn policy = lesslog_policy();
  const std::optional<Pid> p = policy(h.ctx(Pid{4}));
  EXPECT_EQ(p, Pid{5});  // head of P(4)'s children list
}

TEST(LessLogPolicy, WalksChildrenListAcrossCalls) {
  Harness h(4, 4);
  const sim::PlacementFn policy = lesslog_policy();
  const std::vector<Pid> expected{Pid{5}, Pid{6}, Pid{0}, Pid{12}};
  for (const Pid want : expected) {
    const std::optional<Pid> p = policy(h.ctx(Pid{4}));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, want);
    h.has_copy[p->value()] = 1;
  }
}

TEST(RandomPolicy, PicksLiveCopylessNodes) {
  Harness h(4, 4);
  const sim::PlacementFn policy = random_policy();
  for (int i = 0; i < 15; ++i) {
    const std::optional<Pid> p = policy(h.ctx(Pid{4}));
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(h.live.is_live(p->value()));
    EXPECT_EQ(h.has_copy[p->value()], 0);
    EXPECT_NE(*p, Pid{4});
    h.has_copy[p->value()] = 1;
  }
  // Every node now holds a copy: no candidate remains.
  EXPECT_EQ(policy(h.ctx(Pid{4})), std::nullopt);
}

TEST(RandomPolicy, SpreadsOverManyNodes) {
  Harness h(6, 0);
  const sim::PlacementFn policy = random_policy();
  std::set<std::uint32_t> picks;
  for (int i = 0; i < 60; ++i) {
    const std::optional<Pid> p = policy(h.ctx(Pid{0}));
    ASSERT_TRUE(p.has_value());
    picks.insert(p->value());
  }
  // Without placement memory, 60 draws over 63 candidates land on many
  // distinct nodes.
  EXPECT_GT(picks.size(), 30u);
}

// With a candidate set the policy draws the same count and lands on the
// same PID as the byte-map scan, including when the overloaded node is
// itself a candidate and every pick at or above it shifts by one.
TEST(RandomPolicy, CandidateSetPicksWhatTheByteMapPicks) {
  for (const std::uint32_t over : {0u, 37u, 200u, 255u}) {
    Harness h(8, 0);
    util::Rng dead_rng(over + 1u);
    for (const std::uint32_t d : dead_rng.sample_indices(256, 60)) {
      if (d != over && d != 0) {
        h.live.set_dead(d);
        h.demand.rate[d] = 0.0;
      }
    }
    sim::PlacementCandidates candidates(h.live, h.has_copy);
    util::Rng indexed_rng(17);  // the harness's seed
    const sim::PlacementFn policy = random_policy();
    for (int i = 0; i < 250; ++i) {
      const std::optional<Pid> scanned = policy(h.ctx(Pid{over}));
      const sim::PlacementContext ctx{
          h.tree,     h.view,
          Pid{over},
          h.live,     h.has_copy,
          [&h]() -> const sim::LoadReport& { return h.report; },
          h.demand,   indexed_rng,
          &candidates};
      const std::optional<Pid> indexed = policy(ctx);
      ASSERT_EQ(indexed, scanned) << "over=" << over << " i=" << i;
      if (!scanned.has_value()) break;
      h.has_copy[scanned->value()] = 1;
      candidates.remove(scanned->value());
    }
    // The harness rng and the indexed one drew the same numbers.
    EXPECT_EQ(h.rng(), indexed_rng()) << "over=" << over;
  }
}

TEST(LogBasedPolicy, PicksChildForwardingMostFlow) {
  Harness h(4, 4);
  const sim::PlacementFn policy = logbased_policy();
  // Under uniform demand, the children list head (largest subtree) also
  // forwards the most flow, so log-based and LessLog agree on the first
  // placement.
  const std::optional<Pid> p = policy(h.ctx(Pid{4}));
  EXPECT_EQ(p, Pid{5});
}

TEST(LogBasedPolicy, FollowsSkewedFlowInsteadOfStructure) {
  Harness h(4, 4);
  // Rewire demand: all load comes from P(12)'s single-node subtree... use
  // P(6)'s subtree instead (children P(7)? vid of 6 is 1101, subtree
  // {1101,1001,0101,0001} -> pids 6,2,14,10). Give all demand to those.
  for (auto& r : h.demand.rate) r = 0.0;
  h.demand.rate[6] = 400.0;
  h.demand.rate[2] = 400.0;
  h.demand.rate[14] = 400.0;
  h.demand.rate[10] = 400.0;
  const sim::PlacementFn policy = logbased_policy();
  const std::optional<Pid> p = policy(h.ctx(Pid{4}));
  // The structural head P(5) forwards nothing; P(6) forwards 1600/s.
  EXPECT_EQ(p, Pid{6});
}

TEST(LogBasedPolicy, FallsBackToStructureWhenNoFlow) {
  Harness h(4, 4);
  for (auto& r : h.demand.rate) r = 0.0;
  h.demand.rate[4] = 500.0;  // all demand is the target's own clients
  const sim::PlacementFn policy = logbased_policy();
  const std::optional<Pid> p = policy(h.ctx(Pid{4}));
  EXPECT_EQ(p, Pid{5});  // deterministic structural fallback
}

TEST(LogBasedPolicy, SkipsChildrenWithCopies) {
  Harness h(4, 4);
  h.has_copy[5] = 1;
  const sim::PlacementFn policy = logbased_policy();
  const std::optional<Pid> p = policy(h.ctx(Pid{4}));
  ASSERT_TRUE(p.has_value());
  EXPECT_NE(*p, Pid{5});
}

TEST(AllPolicies, NulloptWhenEveryNodeHoldsACopy) {
  for (const auto& policy :
       {lesslog_policy(), random_policy(), logbased_policy()}) {
    Harness h(3, 2);
    for (auto& c : h.has_copy) c = 1;
    EXPECT_EQ(policy(h.ctx(Pid{2})), std::nullopt);
  }
}

}  // namespace
}  // namespace lesslog::baseline
