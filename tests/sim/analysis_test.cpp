// Placement analytics over a copy placement on a lookup tree: who serves
// whom and how unequal the catchments are. The analysis lives here because
// only these tests read it; two of them check core::replicate_target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lesslog/core/replication.hpp"
#include "lesslog/core/routing.hpp"
#include "lesslog/sim/load_solver.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::sim {
namespace {

/// Gini coefficient of a non-negative vector: 0 = perfectly equal,
/// approaching 1 = one element holds everything.
double gini(std::vector<double> xs) {
  if (xs.size() < 2) return 0.0;
  std::sort(xs.begin(), xs.end());
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    weighted += static_cast<double>(i + 1) * xs[i];
    total += xs[i];
  }
  if (total == 0.0) return 0.0;
  const auto n = static_cast<double>(xs.size());
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

struct PlacementAnalysis {
  /// Copies analyzed (live holders only).
  std::size_t copies = 0;
  /// For each copy (ascending PID): how many live requesters it serves
  /// under a uniform workload (its catchment, including itself).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> catchments;
  double catchment_gini = 0.0;
  /// Largest catchment as a fraction of live nodes.
  double max_catchment_fraction = 0.0;
  /// Deepest copy location (depth 0 = tree root).
  int max_copy_depth = 0;
  /// Mean hops a requester travels to its serving copy.
  double mean_hops = 0.0;
  /// Requesters with no reachable copy.
  std::uint32_t uncovered = 0;
};

/// Routes a GET from every live PID over `has_copy` under `live`. O(N·m).
PlacementAnalysis analyze_placement(const core::LookupTree& tree,
                                    const CopyMap& has_copy,
                                    const util::StatusWord& live) {
  PlacementAnalysis out;
  const core::HasCopyFn copy_fn = [&has_copy](core::Pid p) {
    return has_copy[p.value()] != 0;
  };

  std::unordered_map<std::uint32_t, std::uint32_t> catchment;
  std::int64_t hop_total = 0;
  std::int64_t served = 0;
  for (std::uint32_t k = 0; k < live.capacity(); ++k) {
    if (!live.is_live(k)) continue;
    const core::RouteResult r =
        core::route_get(tree, core::Pid{k}, live, copy_fn);
    if (!r.served_by.has_value()) {
      ++out.uncovered;
      continue;
    }
    ++catchment[r.served_by->value()];
    hop_total += r.hops();
    ++served;
  }

  std::vector<double> sizes;
  for (std::uint32_t p = 0; p < live.capacity(); ++p) {
    if (has_copy[p] == 0 || !live.is_live(p)) continue;
    ++out.copies;
    const std::uint32_t size = catchment.contains(p) ? catchment[p] : 0;
    out.catchments.emplace_back(p, size);
    sizes.push_back(static_cast<double>(size));
    out.max_copy_depth =
        std::max(out.max_copy_depth, tree.depth(core::Pid{p}));
  }
  out.catchment_gini = gini(sizes);
  if (!sizes.empty() && live.live_count() > 0) {
    out.max_catchment_fraction =
        *std::max_element(sizes.begin(), sizes.end()) /
        static_cast<double>(live.live_count());
  }
  out.mean_hops =
      served > 0 ? static_cast<double>(hop_total) / static_cast<double>(served)
                 : 0.0;
  return out;
}

util::StatusWord all_live(int m) {
  return util::StatusWord(m, util::space_size(m));
}

TEST(Gini, ReferenceValues) {
  EXPECT_DOUBLE_EQ(gini({}), 0.0);
  EXPECT_DOUBLE_EQ(gini({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(gini({3.0, 3.0, 3.0}), 0.0);
  // One of two holds everything: gini = 1/2 for n = 2.
  EXPECT_NEAR(gini({0.0, 10.0}), 0.5, 1e-12);
  // All-zero input is defined as perfectly equal.
  EXPECT_DOUBLE_EQ(gini({0.0, 0.0}), 0.0);
}

TEST(Analysis, SingleCopyOwnsWholeSpace) {
  const core::LookupTree tree(4, core::Pid{4});
  const util::StatusWord live = all_live(4);
  CopyMap copies(16, 0);
  copies[4] = 1;
  const PlacementAnalysis a = analyze_placement(tree, copies, live);
  EXPECT_EQ(a.copies, 1u);
  ASSERT_EQ(a.catchments.size(), 1u);
  EXPECT_EQ(a.catchments[0].first, 4u);
  EXPECT_EQ(a.catchments[0].second, 16u);
  EXPECT_DOUBLE_EQ(a.max_catchment_fraction, 1.0);
  EXPECT_EQ(a.uncovered, 0u);
  EXPECT_EQ(a.max_copy_depth, 0);  // the copy sits at the tree root
}

TEST(Analysis, HeadChildSplitsCatchmentInHalf) {
  const core::LookupTree tree(4, core::Pid{4});
  const util::StatusWord live = all_live(4);
  CopyMap copies(16, 0);
  copies[4] = 1;
  copies[5] = 1;  // children-list head, subtree of 8
  const PlacementAnalysis a = analyze_placement(tree, copies, live);
  EXPECT_EQ(a.copies, 2u);
  for (const auto& [pid, size] : a.catchments) {
    EXPECT_EQ(size, 8u);
  }
  EXPECT_DOUBLE_EQ(a.catchment_gini, 0.0);
  EXPECT_DOUBLE_EQ(a.max_catchment_fraction, 0.5);
}

TEST(Analysis, LessLogPlacementsKeepCatchmentsBalanced) {
  // Grow a LessLog placement and a random placement of equal size; the
  // LessLog one must have materially lower catchment inequality — this is
  // *why* it needs fewer replicas in the paper's figures.
  const int m = 8;
  const core::LookupTree tree(m, core::Pid{200});
  const util::StatusWord live = all_live(m);
  util::Rng rng(3);

  CopyMap lesslog_copies(256, 0);
  lesslog_copies[200] = 1;
  for (int step = 0; step < 15; ++step) {
    // Replicate from the copy with the largest catchment (the overloaded
    // one), as the experiment loop does.
    const PlacementAnalysis a =
        analyze_placement(tree, lesslog_copies, live);
    std::uint32_t worst = a.catchments.front().first;
    std::uint32_t worst_size = 0;
    for (const auto& [pid, size] : a.catchments) {
      if (size > worst_size) {
        worst = pid;
        worst_size = size;
      }
    }
    const auto placement = core::replicate_target(
        tree, core::Pid{worst}, live,
        [&](core::Pid p) { return lesslog_copies[p.value()] != 0; }, rng);
    ASSERT_TRUE(placement.has_value());
    lesslog_copies[placement->target.value()] = 1;
  }

  CopyMap random_copies(256, 0);
  random_copies[200] = 1;
  int placed = 0;
  while (placed < 15) {
    const auto p = static_cast<std::uint32_t>(rng.bounded(256));
    if (random_copies[p] == 0) {
      random_copies[p] = 1;
      ++placed;
    }
  }

  const PlacementAnalysis ll = analyze_placement(tree, lesslog_copies, live);
  const PlacementAnalysis rd = analyze_placement(tree, random_copies, live);
  EXPECT_EQ(ll.copies, rd.copies);
  EXPECT_LT(ll.catchment_gini, rd.catchment_gini);
  EXPECT_LT(ll.max_catchment_fraction, rd.max_catchment_fraction);
}

TEST(Analysis, UncoveredCountsUnreachableRequesters) {
  const core::LookupTree tree(4, core::Pid{4});
  const util::StatusWord live = all_live(4);
  const CopyMap copies(16, 0);  // no copies at all
  const PlacementAnalysis a = analyze_placement(tree, copies, live);
  EXPECT_EQ(a.copies, 0u);
  EXPECT_EQ(a.uncovered, 16u);
}

TEST(Analysis, DeadHoldersAreIgnored) {
  const core::LookupTree tree(4, core::Pid{4});
  util::StatusWord live = all_live(4);
  live.set_dead(5);
  CopyMap copies(16, 0);
  copies[4] = 1;
  copies[5] = 1;  // dead holder: invisible
  const PlacementAnalysis a = analyze_placement(tree, copies, live);
  EXPECT_EQ(a.copies, 1u);
  EXPECT_EQ(a.catchments[0].first, 4u);
}

TEST(Analysis, MeanHopsDropsAsPlacementGrows) {
  const int m = 7;
  const core::LookupTree tree(m, core::Pid{50});
  const util::StatusWord live = all_live(m);
  util::Rng rng(5);
  CopyMap copies(128, 0);
  copies[50] = 1;
  const double before = analyze_placement(tree, copies, live).mean_hops;
  for (int i = 0; i < 6; ++i) {
    const auto placement = core::replicate_target(
        tree, core::Pid{50}, live,
        [&](core::Pid p) { return copies[p.value()] != 0; }, rng);
    copies[placement->target.value()] = 1;
  }
  const double after = analyze_placement(tree, copies, live).mean_hops;
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace lesslog::sim
