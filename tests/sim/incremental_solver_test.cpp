// Differential tests: IncrementalLoadSolver vs the from-scratch oracle.
//
// The incremental solver promises *bit-identical* reports — every double
// equal with ==, not EXPECT_NEAR — because both solvers hold demand in
// integer fixed point, where a sum does not depend on the order it is
// formed in. These tests drive the pair across seeds, dead fractions,
// both workloads, b > 0, exotic (faulting / migrating) placements, the
// placement sequences of the figure sweeps, the full experiment loop, and
// the removal pass.
#include "lesslog/sim/load_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lesslog/baseline/policy.hpp"
#include "lesslog/sim/experiment.hpp"
#include "lesslog/sim/workload.hpp"
#include "lesslog/util/bits.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog {
namespace {

// One solver cell built the same way the experiment harness builds its
// Setup: uniform dead set, insertion-target copies, workload over the
// live nodes.
struct Cell {
  Cell(int m, int b, double dead_fraction, sim::WorkloadKind wk,
       std::uint64_t seed, double total_rate = 6000.0)
      : rng(seed),
        live(make_live(m, dead_fraction, rng)),
        tree(m, core::Pid{static_cast<std::uint32_t>(
                    rng.bounded(util::space_size(m)))}),
        view(tree, b),
        has_copy(util::space_size(m), 0) {
    for (core::Pid holder : view.insertion_targets(live)) {
      has_copy[holder.value()] = 1;
    }
    demand = wk == sim::WorkloadKind::kUniform
                 ? sim::uniform_workload(util::BorrowedView(live), total_rate)
                 : sim::locality_workload(util::BorrowedView(live),
                                          total_rate, rng);
  }

  static util::StatusWord make_live(int m, double dead_fraction,
                                    util::Rng& rng) {
    util::StatusWord live(m, util::space_size(m));
    const auto dead = static_cast<std::uint32_t>(
        dead_fraction * static_cast<double>(util::space_size(m)));
    for (std::uint32_t p : rng.sample_indices(util::space_size(m), dead)) {
      live.set_dead(p);
    }
    return live;
  }

  // A deterministic arbitrary copyless live node, or nullopt when every
  // live node already holds a copy.
  std::optional<std::uint32_t> next_placement() {
    const std::uint32_t slots = live.capacity();
    for (std::uint32_t tries = 0; tries < 4u * slots; ++tries) {
      const auto p = static_cast<std::uint32_t>(rng.bounded(slots));
      if (live.is_live(p) && has_copy[p] == 0) return p;
    }
    for (std::uint32_t p = 0; p < slots; ++p) {
      if (live.is_live(p) && has_copy[p] == 0) return p;
    }
    return std::nullopt;
  }

  util::Rng rng;
  util::StatusWord live;
  core::LookupTree tree;
  core::SubtreeView view;
  sim::CopyMap has_copy;
  sim::Workload demand;
};

void expect_reports_equal(const sim::LoadReport& oracle,
                          sim::LoadReport incremental,
                          const std::string& where) {
  ASSERT_EQ(oracle.served.size(), incremental.served.size()) << where;
  for (std::size_t p = 0; p < oracle.served.size(); ++p) {
    ASSERT_EQ(oracle.served[p], incremental.served[p])
        << where << " served[" << p << "]";
    ASSERT_EQ(oracle.forwarded[p], incremental.forwarded[p])
        << where << " forwarded[" << p << "]";
  }
  EXPECT_EQ(oracle.fault_rate, incremental.fault_rate) << where;
  EXPECT_EQ(oracle.mean_hops, incremental.mean_hops) << where;
  EXPECT_EQ(oracle.max_served, incremental.max_served) << where;
  EXPECT_EQ(oracle.max_served_pid, incremental.max_served_pid) << where;
}

// reset() and a sequence of add_copy() calls must match a fresh
// solve_load after every single step, across the full parameter grid.
TEST(IncrementalSolver, StepwiseDifferentialAcrossGrid) {
  for (const int b : {0, 2}) {
    for (const double dead : {0.0, 0.2, 0.3}) {
      for (const sim::WorkloadKind wk :
           {sim::WorkloadKind::kUniform, sim::WorkloadKind::kLocality}) {
        for (const std::uint64_t seed : {1u, 5u, 9u}) {
          Cell cell(6, b, dead, wk, seed);
          const std::string where =
              "b=" + std::to_string(b) + " dead=" + std::to_string(dead) +
              " wk=" + std::to_string(static_cast<int>(wk)) +
              " seed=" + std::to_string(seed);
          sim::IncrementalLoadSolver solver(cell.view, cell.live,
                                            cell.demand);
          solver.reset(cell.has_copy);
          expect_reports_equal(
              sim::solve_load(cell.view, cell.has_copy, cell.live,
                              cell.demand),
              solver.report(), where + " reset");
          for (int step = 0; step < 12; ++step) {
            const std::optional<std::uint32_t> p = cell.next_placement();
            if (!p.has_value()) break;
            cell.has_copy[*p] = 1;
            solver.add_copy(*p);
            const sim::LoadReport oracle = sim::solve_load(
                cell.view, cell.has_copy, cell.live, cell.demand);
            expect_reports_equal(oracle, solver.report(),
                                 where + " step=" + std::to_string(step));
            // At b = 0 the plain-tree oracle must agree as well.
            if (b == 0) {
              expect_reports_equal(
                  sim::solve_load(cell.tree, cell.has_copy, cell.live,
                                  cell.demand),
                  solver.report(),
                  where + " tree-oracle step=" + std::to_string(step));
            }
          }
        }
      }
    }
  }
}

std::uint32_t reversed(std::uint32_t v, int m) {
  std::uint32_t r = 0;
  for (int i = 0; i < m; ++i) r |= ((v >> i) & 1u) << (m - 1 - i);
  return r;
}

/// A rate in the solvers' fixed point (2^-32 req/s); exact for every
/// value the reports below carry.
std::int64_t units(double rate) { return std::llround(rate * 0x1p32); }

/// The identity add_copy() relies on, checked from the block property: a
/// live copyless node forwards exactly the demand of its bit-reversed PID
/// block minus what the holders inside the block serve.
void expect_block_identity(const core::SubtreeView& view,
                           const util::StatusWord& live,
                           const sim::CopyMap& has_copy,
                           const sim::Workload& demand,
                           const sim::LoadReport& r, const std::string& where) {
  const int m = view.tree().width();
  const std::uint32_t n = util::space_size(m);
  std::vector<std::int64_t> demand_upto(n + 1, 0);
  std::vector<std::int64_t> served_upto(n + 1, 0);
  for (std::uint32_t p = 0; p < n; ++p) {
    demand_upto[reversed(p, m) + 1] = units(demand.rate[p]);
    served_upto[reversed(p, m) + 1] = units(r.served[p]);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    demand_upto[i + 1] += demand_upto[i];
    served_upto[i + 1] += served_upto[i];
  }
  for (std::uint32_t q = 0; q < n; ++q) {
    if (!live.is_live(q) || has_copy[q] != 0) continue;
    const std::uint32_t size =
        std::uint32_t{1} << util::leading_ones(view.subtree_vid(core::Pid{q}),
                                               view.subtree_width());
    const std::uint32_t first = reversed(q, m) & ~(size - 1u);
    const std::uint32_t end = first + size;
    ASSERT_EQ(units(r.forwarded[q]),
              (demand_upto[end] - demand_upto[first]) -
                  (served_upto[end] - served_upto[first]))
        << where << " forwarded[" << q << "]";
  }
}

// One cell of a figure sweep, built exactly as run_replication_experiment
// builds it (target, dead set, insertion copies, demand, in that rng
// order), so the replayed placements are the sweep's own.
struct SweepCell {
  explicit SweepCell(const sim::ExperimentConfig& cfg)
      : rng(cfg.seed),
        live(cfg.m),
        tree(cfg.m, core::Pid{static_cast<std::uint32_t>(
                        rng.bounded(util::space_size(cfg.m)))}),
        view(tree, cfg.b),
        has_copy(util::space_size(cfg.m), 0) {
    const std::uint32_t slots = util::space_size(cfg.m);
    for (std::uint32_t p = 0; p < slots; ++p) live.set_live(p);
    const auto dead = static_cast<std::uint32_t>(
        std::lround(cfg.dead_fraction * static_cast<double>(slots)));
    for (const std::uint32_t d : rng.sample_indices(slots, dead)) {
      live.set_dead(d);
    }
    for (const core::Pid holder : view.insertion_targets(live)) {
      has_copy[holder.value()] = 1;
    }
    demand = cfg.workload == sim::WorkloadKind::kUniform
                 ? sim::uniform_workload(util::BorrowedView(live),
                                         cfg.total_rate)
                 : sim::locality_workload(util::BorrowedView(live),
                                          cfg.total_rate, rng);
  }

  util::Rng rng;
  util::StatusWord live;
  core::LookupTree tree;
  core::SubtreeView view;
  sim::CopyMap has_copy;
  sim::Workload demand;
};

/// Replays the incremental balance loop of `cfg` and compares the solver
/// with a fresh oracle solve, and with the block identity, after every
/// placement. Returns the number of placements.
int replay_sweep_cell(const sim::ExperimentConfig& cfg,
                      const sim::PlacementFn& policy,
                      const std::string& where) {
  SweepCell cell(cfg);
  sim::IncrementalLoadSolver solver(cell.view, cell.live, cell.demand);
  solver.reset(cell.has_copy);
  sim::PlacementCandidates candidates(cell.live, cell.has_copy);
  const auto oracle = [&cell, &cfg] {
    return cfg.b == 0 ? sim::solve_load(cell.tree, cell.has_copy, cell.live,
                                        cell.demand)
                      : sim::solve_load(cell.view, cell.has_copy, cell.live,
                                        cell.demand);
  };
  expect_reports_equal(oracle(), solver.report(), where + " reset");
  int placed = 0;
  while (placed < cfg.max_replicas) {
    const std::optional<std::uint32_t> hot =
        solver.most_overloaded(cfg.capacity);
    if (!hot.has_value()) break;
    const sim::PlacementContext ctx{
        cell.tree,   cell.view,
        core::Pid{*hot},
        cell.live,   cell.has_copy,
        [&solver]() -> const sim::LoadReport& { return solver.report(); },
        cell.demand, cell.rng,
        &candidates};
    const std::optional<core::Pid> p = policy(ctx);
    if (!p.has_value() || cell.has_copy[p->value()] != 0 ||
        !cell.live.is_live(p->value())) {
      break;
    }
    cell.has_copy[p->value()] = 1;
    candidates.remove(p->value());
    solver.add_copy(p->value());
    ++placed;
    const std::string at = where + " placement=" + std::to_string(placed);
    EXPECT_TRUE(solver.fast_path()) << at;
    const sim::LoadReport& got = solver.report();
    expect_reports_equal(oracle(), got, at);
    expect_block_identity(cell.view, cell.live, cell.has_copy, cell.demand,
                          got, at);
    if (::testing::Test::HasFailure()) break;
  }
  return placed;
}

struct SweepCase {
  const char* policy;
  int b;
};

// Names each case (and so its CTest entry) by value, not by its bytes.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.policy << "_b" << c.b;
}

class FigureSweepSequences : public ::testing::TestWithParam<SweepCase> {};

// The placement sequences of the Figure 5-8 sweeps (even and locality
// demand, 0-30% dead) at m = 10 and two smaller spaces, with each policy
// and b = 0..2: the solver equals the oracle on every report field after
// every add_copy, and the replay places as many replicas as the sweep.
TEST_P(FigureSweepSequences, SolverMatchesOracleAfterEveryPlacement) {
  const SweepCase& c = GetParam();
  const std::string name = c.policy;
  const sim::PlacementFn policy = name == "lesslog" ? baseline::lesslog_policy()
                                  : name == "log-based"
                                      ? baseline::logbased_policy()
                                      : baseline::random_policy();
  struct Figure {
    sim::WorkloadKind workload;
    double dead;
  };
  const Figure figures[] = {{sim::WorkloadKind::kUniform, 0.0},
                            {sim::WorkloadKind::kUniform, 0.1},
                            {sim::WorkloadKind::kUniform, 0.3},
                            {sim::WorkloadKind::kLocality, 0.0},
                            {sim::WorkloadKind::kLocality, 0.2}};
  for (const int m : {5, 8, 10}) {
    for (const Figure& f : figures) {
      for (const double rate : {4000.0, 20000.0}) {
        sim::ExperimentConfig cfg;
        cfg.m = m;
        cfg.b = c.b;
        cfg.capacity = 100.0;
        cfg.workload = f.workload;
        cfg.dead_fraction = f.dead;
        cfg.total_rate = rate;
        cfg.seed = static_cast<std::uint64_t>(m) * 7u + 1u;
        const std::string where =
            name + " b=" + std::to_string(c.b) + " m=" + std::to_string(m) +
            " wk=" + std::to_string(static_cast<int>(f.workload)) +
            " dead=" + std::to_string(f.dead) +
            " rate=" + std::to_string(rate);
        const int placed = replay_sweep_cell(cfg, policy, where);
        if (HasFailure()) return;
        EXPECT_EQ(placed,
                  sim::run_replication_experiment(cfg, policy).replicas_created)
            << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Figures, FigureSweepSequences,
    ::testing::Values(SweepCase{"lesslog", 0}, SweepCase{"lesslog", 1},
                      SweepCase{"lesslog", 2}, SweepCase{"log-based", 0},
                      SweepCase{"log-based", 1}, SweepCase{"log-based", 2},
                      SweepCase{"random", 0}, SweepCase{"random", 1},
                      SweepCase{"random", 2}));

// A rate that is negative, NaN, too large for the int64 units, part of a
// total that would overflow them, or carried by a dead node is rejected by
// both solvers.
TEST(IncrementalSolver, FixedPointRejectsThrowFromBothSolvers) {
  Cell cell(6, 1, 0.0, sim::WorkloadKind::kUniform, 1);
  std::uint32_t dead = 0;
  while (dead == 3 || cell.has_copy[dead] != 0) ++dead;
  cell.live.set_dead(dead);
  cell.demand.rate[dead] = 0.0;
  const auto bad = [&cell](std::uint32_t pid, double rate) {
    sim::Workload w = cell.demand;
    w.rate[pid] = rate;
    return w;
  };
  std::vector<std::pair<std::string, sim::Workload>> rejects = {
      {"negative", bad(3, -1.0)},
      {"tiny negative", bad(3, -1e-300)},
      {"NaN", bad(3, std::numeric_limits<double>::quiet_NaN())},
      {"infinite", bad(3, std::numeric_limits<double>::infinity())},
      {"2^31 req/s", bad(3, 0x1p31)},
      {"dead node", bad(dead, 1.0)},
  };
  sim::Workload overflow = cell.demand;
  std::fill(overflow.rate.begin(), overflow.rate.end(), 0x1p30);
  rejects.emplace_back("total overflow", overflow);
  for (const auto& [what, w] : rejects) {
    EXPECT_THROW(static_cast<void>(
                     sim::solve_load(cell.tree, cell.has_copy, cell.live, w)),
                 std::invalid_argument)
        << what;
    EXPECT_THROW(static_cast<void>(
                     sim::solve_load(cell.view, cell.has_copy, cell.live, w)),
                 std::invalid_argument)
        << what;
    EXPECT_THROW(sim::IncrementalLoadSolver(cell.view, cell.live, w),
                 std::invalid_argument)
        << what;
    EXPECT_THROW(sim::IncrementalLoadSolver(cell.tree, cell.live, w),
                 std::invalid_argument)
        << what;
  }
  // Just inside the bounds: the largest single rate, and zeros.
  sim::Workload edge(cell.demand);
  std::fill(edge.rate.begin(), edge.rate.end(), 0.0);
  edge.rate[3] = 0x1p31 - 0x1p-21;
  const sim::LoadReport oracle =
      sim::solve_load(cell.view, cell.has_copy, cell.live, edge);
  sim::IncrementalLoadSolver solver(cell.view, cell.live, edge);
  solver.reset(cell.has_copy);
  expect_reports_equal(oracle, solver.report(), "largest rate");
  EXPECT_EQ(oracle.max_served, 0x1p31 - 0x1p-21);
}

// The tree-routed constructor is the b = 0 view.
TEST(IncrementalSolver, TreeConstructorMatchesViewAtBZero) {
  Cell cell(7, 0, 0.2, sim::WorkloadKind::kUniform, 3);
  sim::IncrementalLoadSolver from_tree(cell.tree, cell.live, cell.demand);
  sim::IncrementalLoadSolver from_view(cell.view, cell.live, cell.demand);
  from_tree.reset(cell.has_copy);
  from_view.reset(cell.has_copy);
  expect_reports_equal(from_view.report(), from_tree.report(), "ctor");
}

// An empty copy map faults every request; a lone off-target copy in one
// subtree forces cross-subtree migrations at b > 0. Both are outside the
// structured update's model, so the solver must detect them and stay
// exact through full resets.
TEST(IncrementalSolver, ExoticPlacementsStayExact) {
  // All-fault: no copies anywhere.
  {
    Cell cell(6, 0, 0.2, sim::WorkloadKind::kUniform, 11);
    std::fill(cell.has_copy.begin(), cell.has_copy.end(), char{0});
    sim::IncrementalLoadSolver solver(cell.view, cell.live, cell.demand);
    solver.reset(cell.has_copy);
    EXPECT_FALSE(solver.fast_path());
    expect_reports_equal(
        sim::solve_load(cell.view, cell.has_copy, cell.live, cell.demand),
        solver.report(), "all-fault reset");
    for (int step = 0; step < 4; ++step) {
      const std::optional<std::uint32_t> p = cell.next_placement();
      ASSERT_TRUE(p.has_value());
      cell.has_copy[*p] = 1;
      solver.add_copy(*p);
      expect_reports_equal(
          sim::solve_load(cell.view, cell.has_copy, cell.live, cell.demand),
          solver.report(), "all-fault step=" + std::to_string(step));
    }
  }
  // Migration: b = 2 but only subtree 0 holds a copy, so three quarters
  // of the requesters fault in their own subtree and migrate.
  {
    Cell cell(6, 2, 0.1, sim::WorkloadKind::kLocality, 13);
    std::fill(cell.has_copy.begin(), cell.has_copy.end(), char{0});
    const std::optional<core::Pid> holder =
        cell.view.insertion_target(0, cell.live);
    ASSERT_TRUE(holder.has_value());
    cell.has_copy[holder->value()] = 1;
    sim::IncrementalLoadSolver solver(cell.view, cell.live, cell.demand);
    solver.reset(cell.has_copy);
    EXPECT_FALSE(solver.fast_path());
    expect_reports_equal(
        sim::solve_load(cell.view, cell.has_copy, cell.live, cell.demand),
        solver.report(), "migration reset");
    for (int step = 0; step < 4; ++step) {
      const std::optional<std::uint32_t> p = cell.next_placement();
      ASSERT_TRUE(p.has_value());
      cell.has_copy[*p] = 1;
      solver.add_copy(*p);
      expect_reports_equal(
          sim::solve_load(cell.view, cell.has_copy, cell.live, cell.demand),
          solver.report(), "migration step=" + std::to_string(step));
    }
  }
}

void expect_results_equal(const sim::ExperimentResult& oracle,
                          const sim::ExperimentResult& fast,
                          const std::string& where) {
  EXPECT_EQ(oracle.replicas_created, fast.replicas_created) << where;
  EXPECT_EQ(oracle.balanced, fast.balanced) << where;
  EXPECT_EQ(oracle.irreducible_overload, fast.irreducible_overload) << where;
  EXPECT_EQ(oracle.final_max_load, fast.final_max_load) << where;
  EXPECT_EQ(oracle.mean_hops, fast.mean_hops) << where;
  EXPECT_EQ(oracle.fault_rate, fast.fault_rate) << where;
  EXPECT_EQ(oracle.fairness, fast.fairness) << where;
  EXPECT_EQ(oracle.live_nodes, fast.live_nodes) << where;
}

// The whole replicate-until-balanced experiment, policy decisions and
// all, must be bit-identical between solver modes: identical reports
// imply identical overload picks, identical policy inputs, and an
// identical rng stream.
TEST(IncrementalSolver, FullExperimentBitIdentity) {
  const std::vector<std::pair<const char*, sim::PlacementFn>> policies = {
      {"lesslog", baseline::lesslog_policy()},
      {"logbased", baseline::logbased_policy()},
      {"random", baseline::random_policy()},
  };
  for (const auto& [pname, policy] : policies) {
    for (const int b : {0, 2}) {
      for (const double dead : {0.0, 0.3}) {
        for (const sim::WorkloadKind wk :
             {sim::WorkloadKind::kUniform, sim::WorkloadKind::kLocality}) {
          for (const std::uint64_t seed : {2u, 7u}) {
            sim::ExperimentConfig cfg;
            cfg.m = 7;
            cfg.b = b;
            cfg.dead_fraction = dead;
            cfg.total_rate = 6000.0;
            cfg.capacity = 100.0;
            cfg.workload = wk;
            cfg.seed = seed;
            cfg.solver = sim::SolverMode::kScratch;
            const sim::ExperimentResult oracle =
                sim::run_replication_experiment(cfg, policy);
            cfg.solver = sim::SolverMode::kIncremental;
            const sim::ExperimentResult fast =
                sim::run_replication_experiment(cfg, policy);
            expect_results_equal(
                oracle, fast,
                std::string(pname) + " b=" + std::to_string(b) +
                    " dead=" + std::to_string(dead) +
                    " wk=" + std::to_string(static_cast<int>(wk)) +
                    " seed=" + std::to_string(seed));
          }
        }
      }
    }
  }
}

TEST(IncrementalSolver, RemovalPassBitIdentity) {
  for (const double dead : {0.0, 0.2}) {
    sim::ExperimentConfig cfg;
    cfg.m = 7;
    cfg.dead_fraction = dead;
    cfg.total_rate = 8000.0;
    cfg.capacity = 100.0;
    cfg.seed = 4;
    cfg.solver = sim::SolverMode::kScratch;
    const sim::RemovalResult oracle =
        sim::run_with_removal(cfg, baseline::lesslog_policy(), 10.0);
    cfg.solver = sim::SolverMode::kIncremental;
    const sim::RemovalResult fast =
        sim::run_with_removal(cfg, baseline::lesslog_policy(), 10.0);
    const std::string where = "removal dead=" + std::to_string(dead);
    expect_results_equal(oracle.before, fast.before, where);
    EXPECT_EQ(oracle.replicas_after_removal, fast.replicas_after_removal)
        << where;
    EXPECT_EQ(oracle.still_balanced, fast.still_balanced) << where;
  }
}

// most_overloaded must agree with the sorted overloaded() list: same
// emptiness, and the same (maximal) served value at the front.
TEST(IncrementalSolver, MostOverloadedMatchesSortedList) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Cell cell(6, 0, 0.2, sim::WorkloadKind::kLocality, seed);
    const sim::LoadReport report =
        sim::solve_load(cell.view, cell.has_copy, cell.live, cell.demand);
    for (const double capacity : {0.0, 50.0, 100.0, 1e9}) {
      const std::vector<std::uint32_t> sorted = report.overloaded(capacity);
      const std::optional<std::uint32_t> top =
          report.most_overloaded(capacity);
      EXPECT_EQ(sorted.empty(), !top.has_value()) << "cap=" << capacity;
      if (top.has_value()) {
        EXPECT_EQ(report.served[sorted.front()], report.served[*top])
            << "cap=" << capacity;
      }
      // The solver's heap-based tracker picks the identical node.
      sim::IncrementalLoadSolver solver(cell.view, cell.live, cell.demand);
      solver.reset(cell.has_copy);
      EXPECT_EQ(solver.most_overloaded(capacity),
                report.most_overloaded(capacity))
          << "cap=" << capacity;
    }
  }
}

TEST(IncrementalSolver, SizeMismatchesThrow) {
  Cell cell(6, 0, 0.0, sim::WorkloadKind::kUniform, 1);
  sim::Workload short_demand;
  short_demand.rate.assign(10, 1.0);
  EXPECT_THROW(static_cast<void>(sim::solve_load(
                   cell.tree, cell.has_copy, cell.live, short_demand)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(sim::solve_load(
                   cell.view, cell.has_copy, cell.live, short_demand)),
               std::invalid_argument);
  EXPECT_THROW(sim::IncrementalLoadSolver(cell.view, cell.live, short_demand),
               std::invalid_argument);
  sim::IncrementalLoadSolver solver(cell.view, cell.live, cell.demand);
  const sim::CopyMap short_map(10, 0);
  EXPECT_THROW(solver.reset(short_map), std::invalid_argument);
}

}  // namespace
}  // namespace lesslog
