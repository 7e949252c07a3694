#include "lesslog/sim/catalog.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "lesslog/util/hashing.hpp"
#include "lesslog/util/stats.hpp"

namespace lesslog::sim {

namespace {

// One file's routing state. The tree/view pair is heap-allocated once so
// the view's pointer into the tree stays valid as files move in vectors.
struct FileState {
  explicit FileState(int m, int b, core::Pid target)
      : tree(m, target), view(tree, b) {}
  core::LookupTree tree;
  core::SubtreeView view;
  CopyMap has_copy;
  PlacementCandidates candidates;
  Workload demand;       ///< this file's share of every node's rate
  LoadReport report;     ///< cached; recomputed only when copies change
};

LoadReport solve_file(const FileState& f, int b,
                      const util::StatusWord& live) {
  return b == 0 ? solve_load(f.tree, f.has_copy, live, f.demand)
                : solve_load(f.view, f.has_copy, live, f.demand);
}

}  // namespace

CatalogResult run_catalog_experiment(const CatalogConfig& cfg,
                                     const PlacementFn& policy) {
  assert(cfg.files > 0);
  util::Rng rng(cfg.seed);
  const std::uint32_t slots = util::space_size(cfg.m);

  util::StatusWord live(cfg.m);
  for (std::uint32_t p = 0; p < slots; ++p) live.set_live(p);
  const auto dead_count = static_cast<std::uint32_t>(
      std::lround(cfg.dead_fraction * static_cast<double>(slots)));
  for (std::uint32_t dead : rng.sample_indices(slots, dead_count)) {
    live.set_dead(dead);
  }

  // Per-node total request rate, split over the catalog by Zipf weight.
  const Workload node_rates =
      cfg.workload == WorkloadKind::kUniform
          ? uniform_workload(util::BorrowedView(live), cfg.total_rate)
          : locality_workload(util::BorrowedView(live), cfg.total_rate, rng);
  const std::vector<double> weights = zipf_weights(cfg.files, cfg.zipf_s);

  std::vector<std::unique_ptr<FileState>> files;
  files.reserve(cfg.files);
  for (std::uint32_t i = 0; i < cfg.files; ++i) {
    const core::Pid target{util::psi_u64(cfg.seed * 131071u + i, cfg.m)};
    auto state = std::make_unique<FileState>(cfg.m, cfg.b, target);
    state->has_copy.assign(slots, 0);
    for (const core::Pid holder : state->view.insertion_targets(live)) {
      state->has_copy[holder.value()] = 1;
    }
    state->candidates = PlacementCandidates(live, state->has_copy);
    state->demand.rate.assign(slots, 0.0);
    for (std::uint32_t p = 0; p < slots; ++p) {
      state->demand.rate[p] = node_rates.rate[p] * weights[i];
    }
    state->report = solve_file(*state, cfg.b, live);
    files.push_back(std::move(state));
  }

  std::vector<int> replicas_by_rank(cfg.files, 0);
  int replicas = 0;
  bool balanced = false;
  std::vector<double> served_total(slots, 0.0);

  while (true) {
    // Aggregate served load; find the most overloaded node.
    std::fill(served_total.begin(), served_total.end(), 0.0);
    for (const auto& f : files) {
      for (std::uint32_t p = 0; p < slots; ++p) {
        served_total[p] += f->report.served[p];
      }
    }
    std::uint32_t worst = 0;
    for (std::uint32_t p = 1; p < slots; ++p) {
      if (served_total[p] > served_total[worst]) worst = p;
    }
    if (served_total[worst] <= cfg.capacity) {
      balanced = true;
      break;
    }
    if (replicas >= cfg.max_replicas) break;

    // The overloaded node sheds its locally hottest file — information it
    // holds without any client-access log.
    std::size_t hottest = 0;
    double hottest_load = -1.0;
    for (std::size_t i = 0; i < files.size(); ++i) {
      const double load = files[i]->report.served[worst];
      if (load > hottest_load &&
          files[i]->has_copy[worst] != 0) {  // it can only shed what it holds
        hottest_load = load;
        hottest = i;
      }
    }
    if (hottest_load <= 0.0) break;  // overload not sheddable

    FileState& f = *files[hottest];
    const PlacementContext ctx{
        f.tree,     f.view,
        core::Pid{worst},
        live,       f.has_copy,
        [&f]() -> const LoadReport& { return f.report; },
        f.demand,   rng,
        &f.candidates};
    const std::optional<core::Pid> placement = policy(ctx);
    if (!placement.has_value() || f.has_copy[placement->value()] != 0 ||
        !live.is_live(placement->value())) {
      break;  // policy exhausted on the hottest file: cannot balance
    }
    f.has_copy[placement->value()] = 1;
    f.candidates.remove(placement->value());
    f.report = solve_file(f, cfg.b, live);  // only this file's flows moved
    ++replicas;
    ++replicas_by_rank[hottest];
  }

  CatalogResult result;
  result.replicas_created = replicas;
  result.balanced = balanced;
  result.replicas_by_rank = std::move(replicas_by_rank);
  result.live_nodes = live.live_count();
  std::vector<double> live_loads;
  for (std::uint32_t p = 0; p < slots; ++p) {
    if (live.is_live(p)) live_loads.push_back(served_total[p]);
    result.final_max_load = std::max(result.final_max_load, served_total[p]);
  }
  result.fairness = util::jain_fairness(live_loads);
  for (const auto& f : files) {
    for (std::uint32_t p = 0; p < slots; ++p) {
      result.total_copies += f->has_copy[p];
    }
  }
  return result;
}

}  // namespace lesslog::sim
