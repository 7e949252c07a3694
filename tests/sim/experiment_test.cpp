#include "lesslog/sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "lesslog/baseline/policy.hpp"

namespace lesslog::sim {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.m = 6;  // 64 nodes keeps the unit test fast
  cfg.total_rate = 640.0;
  cfg.capacity = 20.0;
  cfg.seed = 11;
  return cfg;
}

TEST(Experiment, LessLogBalancesUniformLoad) {
  const ExperimentResult r = run_replication_experiment(
      small_cfg(), baseline::lesslog_policy());
  EXPECT_TRUE(r.balanced);
  EXPECT_LE(r.final_max_load, 20.0);
  EXPECT_GT(r.replicas_created, 0);
  EXPECT_EQ(r.fault_rate, 0.0);
  EXPECT_EQ(r.live_nodes, 64u);
}

TEST(Experiment, NoReplicationNeededWhenUnderCapacity) {
  ExperimentConfig cfg = small_cfg();
  cfg.total_rate = 10.0;  // under one node's capacity
  const ExperimentResult r =
      run_replication_experiment(cfg, baseline::lesslog_policy());
  EXPECT_TRUE(r.balanced);
  EXPECT_EQ(r.replicas_created, 0);
}

TEST(Experiment, DeterministicGivenSeed) {
  const ExperimentResult a = run_replication_experiment(
      small_cfg(), baseline::lesslog_policy());
  const ExperimentResult b = run_replication_experiment(
      small_cfg(), baseline::lesslog_policy());
  EXPECT_EQ(a.replicas_created, b.replicas_created);
  EXPECT_EQ(a.final_max_load, b.final_max_load);
}

TEST(Experiment, DeadNodesStillBalance) {
  ExperimentConfig cfg = small_cfg();
  cfg.dead_fraction = 0.3;
  const ExperimentResult r =
      run_replication_experiment(cfg, baseline::lesslog_policy());
  EXPECT_TRUE(r.balanced);
  EXPECT_EQ(r.live_nodes, 64u - 19u);  // lround(0.3 * 64) = 19 dead
}

TEST(Experiment, LocalityWorkloadBalances) {
  ExperimentConfig cfg = small_cfg();
  cfg.workload = WorkloadKind::kLocality;
  // 13 hot nodes receive 0.8 * 640 / 13 ≈ 39.4 req/s of local client
  // demand each; capacity must exceed that for balance to be reachable.
  cfg.capacity = 45.0;
  const ExperimentResult r =
      run_replication_experiment(cfg, baseline::lesslog_policy());
  EXPECT_TRUE(r.balanced);
  EXPECT_GT(r.replicas_created, 0);
}

TEST(Experiment, RandomPolicyNeedsMoreReplicasThanLessLog) {
  // The paper's headline comparison at unit-test scale. Random placement is
  // noisy, so compare against the mean of a few seeds.
  ExperimentConfig cfg = small_cfg();
  double lesslog_total = 0;
  double random_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.seed = seed;
    lesslog_total += run_replication_experiment(
                         cfg, baseline::lesslog_policy())
                         .replicas_created;
    random_total +=
        run_replication_experiment(cfg, baseline::random_policy())
            .replicas_created;
  }
  EXPECT_LT(lesslog_total, random_total);
}

TEST(Experiment, LogBasedIsAtMostSlightlyBetterThanLessLog) {
  ExperimentConfig cfg = small_cfg();
  double lesslog_total = 0;
  double logbased_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.seed = seed;
    lesslog_total += run_replication_experiment(
                         cfg, baseline::lesslog_policy())
                         .replicas_created;
    logbased_total += run_replication_experiment(
                          cfg, baseline::logbased_policy())
                          .replicas_created;
  }
  EXPECT_LE(logbased_total, lesslog_total * 1.2 + 5.0);
}

TEST(Experiment, FairnessImprovesTowardBalance) {
  ExperimentConfig cfg = small_cfg();
  cfg.total_rate = 1280.0;
  const ExperimentResult r =
      run_replication_experiment(cfg, baseline::lesslog_policy());
  EXPECT_TRUE(r.balanced);
  EXPECT_GT(r.fairness, 0.2);
}

TEST(Experiment, MaxReplicaCapStopsRunawayLoops) {
  ExperimentConfig cfg = small_cfg();
  cfg.max_replicas = 1;
  cfg.total_rate = 6400.0;
  const ExperimentResult r =
      run_replication_experiment(cfg, baseline::lesslog_policy());
  EXPECT_FALSE(r.balanced);
  EXPECT_EQ(r.replicas_created, 1);
}

TEST(Experiment, FaultTolerantVariantBalances) {
  ExperimentConfig cfg = small_cfg();
  cfg.b = 2;
  const ExperimentResult r =
      run_replication_experiment(cfg, baseline::lesslog_policy());
  EXPECT_TRUE(r.balanced);
}

TEST(RemovalPass, NeverIncreasesReplicas) {
  ExperimentConfig cfg = small_cfg();
  const RemovalResult r =
      run_with_removal(cfg, baseline::lesslog_policy(), 1.0);
  EXPECT_TRUE(r.before.balanced);
  EXPECT_LE(r.replicas_after_removal, r.before.replicas_created);
  EXPECT_GE(r.replicas_after_removal, 0);
}

TEST(RemovalPass, ZeroThresholdKeepsEverythingBalanced) {
  ExperimentConfig cfg = small_cfg();
  const RemovalResult r =
      run_with_removal(cfg, baseline::lesslog_policy(), 0.0);
  EXPECT_EQ(r.replicas_after_removal, r.before.replicas_created);
  EXPECT_TRUE(r.still_balanced);
}

// The candidate set agrees with a brute-force list of the live copyless
// PIDs — count, membership and every select(k) — after removals and
// re-additions, across 4096-PID block boundaries.
TEST(PlacementCandidates, MatchesBruteForceList) {
  for (const int m : {1, 6, 13}) {
    const std::uint32_t space = util::space_size(m);
    util::Rng rng(static_cast<std::uint64_t>(m));
    util::StatusWord live(m, space);
    for (const std::uint32_t d : rng.sample_indices(space, space / 3)) {
      live.set_dead(d);
    }
    CopyMap has_copy(space, 0);
    for (const std::uint32_t c : rng.sample_indices(space, space / 5)) {
      has_copy[c] = 1;  // dead nodes too: they never count
    }
    PlacementCandidates candidates(live, has_copy);
    const auto check = [&](const std::string& where) {
      std::vector<std::uint32_t> expected;
      for (std::uint32_t p = 0; p < space; ++p) {
        const bool open = live.is_live(p) && has_copy[p] == 0;
        ASSERT_EQ(candidates.contains(p), open) << where << " p=" << p;
        if (open) expected.push_back(p);
      }
      ASSERT_EQ(candidates.count(), expected.size()) << where;
      for (std::size_t k = 0; k < expected.size(); ++k) {
        ASSERT_EQ(candidates.select(k), expected[k]) << where << " k=" << k;
      }
    };
    check("m=" + std::to_string(m) + " built");
    for (int op = 1; op <= 400; ++op) {
      const auto p = static_cast<std::uint32_t>(rng.bounded(space));
      if (!live.is_live(p)) continue;
      if (has_copy[p] != 0) {
        has_copy[p] = 0;
        candidates.add(p);
      } else {
        has_copy[p] = 1;
        candidates.remove(p);
      }
      if (op % 100 == 0) {
        check("m=" + std::to_string(m) + " op=" + std::to_string(op));
      }
    }
  }
}

class ExperimentRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(ExperimentRateSweep, ReplicaCountScalesWithLoad) {
  ExperimentConfig cfg = small_cfg();
  cfg.total_rate = GetParam();
  const ExperimentResult r =
      run_replication_experiment(cfg, baseline::lesslog_policy());
  EXPECT_TRUE(r.balanced);
  // At least ceil(rate/capacity) copies must exist; replicas = copies - 1.
  const int min_copies =
      static_cast<int>(std::ceil(GetParam() / cfg.capacity));
  EXPECT_GE(r.replicas_created + 1, min_copies);
}

INSTANTIATE_TEST_SUITE_P(Rates, ExperimentRateSweep,
                         ::testing::Values(100.0, 320.0, 640.0, 960.0,
                                           1200.0));

}  // namespace
}  // namespace lesslog::sim
