#include "lesslog/sim/experiment.hpp"

#include <cassert>
#include <cmath>

#include "lesslog/util/bits.hpp"
#include "lesslog/util/stats.hpp"

namespace lesslog::sim {

PlacementCandidates::PlacementCandidates(const util::StatusWord& live,
                                         const CopyMap& has_copy)
    : words_(live.word_count(), 0),
      block_count_((live.word_count() + kBlockWords - 1) / kBlockWords, 0) {
  for (std::uint32_t p = 0; p < live.capacity(); ++p) {
    if (live.is_live(p) && has_copy[p] == 0) add(p);
  }
}

void PlacementCandidates::remove(std::uint32_t p) noexcept {
  if (!contains(p)) return;
  words_[p >> 6] &= ~(std::uint64_t{1} << (p & 63u));
  --block_count_[(p >> 6) / kBlockWords];
  --count_;
}

void PlacementCandidates::add(std::uint32_t p) noexcept {
  if (contains(p)) return;
  words_[p >> 6] |= std::uint64_t{1} << (p & 63u);
  ++block_count_[(p >> 6) / kBlockWords];
  ++count_;
}

std::uint32_t PlacementCandidates::select(std::uint64_t k) const noexcept {
  std::size_t i = 0;
  for (std::size_t b = 0; k >= block_count_[b]; ++b) {
    k -= block_count_[b];
    i += kBlockWords;
  }
  for (;; ++i) {
    const auto c = static_cast<std::uint64_t>(util::popcount64(words_[i]));
    if (k < c) {
      return static_cast<std::uint32_t>(
          (i << 6) + static_cast<std::size_t>(
                         util::select_bit64(words_[i], static_cast<int>(k))));
    }
    k -= c;
  }
}

namespace {

// Owns everything one experiment cell needs. The SubtreeView holds a
// pointer to the tree, so Setup is neither copyable nor movable — run
// functions build it in place and keep it on their own stack.
struct Setup {
  Setup(const ExperimentConfig& cfg, util::Rng& rng)
      : live(cfg.m),
        tree(cfg.m, pick_target(cfg, rng)),
        view(tree, cfg.b),
        has_copy(util::space_size(cfg.m), 0) {
    const std::uint32_t slots = util::space_size(cfg.m);
    for (std::uint32_t p = 0; p < slots; ++p) live.set_live(p);
    const auto dead_count = static_cast<std::uint32_t>(
        std::lround(cfg.dead_fraction * static_cast<double>(slots)));
    for (std::uint32_t dead : rng.sample_indices(slots, dead_count)) {
      live.set_dead(dead);
    }
    for (core::Pid holder : view.insertion_targets(live)) {
      has_copy[holder.value()] = 1;
      ++initial_copies;
    }
    candidates = PlacementCandidates(live, has_copy);
    demand = cfg.workload == WorkloadKind::kUniform
                 ? uniform_workload(util::BorrowedView(live), cfg.total_rate)
                 : locality_workload(util::BorrowedView(live), cfg.total_rate,
                                     rng);
  }

  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  // ψ(f) falls uniformly on the ID space; the target may be dead (exactly
  // the advanced-model stand-in scenario of Section 3). Drawing the target
  // before the dead set keeps the rng stream layout simple.
  static core::Pid pick_target(const ExperimentConfig& cfg, util::Rng& rng) {
    assert(cfg.dead_fraction >= 0.0 && cfg.dead_fraction < 1.0);
    return core::Pid{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(cfg.m)))};
  }

  /// Marks a placement in the copy map and the candidate set.
  void place_copy(std::uint32_t p) {
    has_copy[p] = 1;
    candidates.remove(p);
  }

  util::StatusWord live;
  core::LookupTree tree;
  core::SubtreeView view;
  CopyMap has_copy;
  PlacementCandidates candidates;
  Workload demand;
  int initial_copies = 0;
};

LoadReport solve(const Setup& s, const ExperimentConfig& cfg) {
  // The two solver entry points are equivalent at b = 0; routing through
  // the plain tree keeps the common case on the paper's basic algorithm.
  return cfg.b == 0 ? solve_load(s.tree, s.has_copy, s.live, s.demand)
                    : solve_load(s.view, s.has_copy, s.live, s.demand);
}

ExperimentResult finish(const Setup& s, const LoadReport& report,
                        int replicas, bool balanced, double capacity) {
  ExperimentResult out;
  out.replicas_created = replicas;
  out.balanced = balanced;
  if (!balanced) {
    // Unbalanced runs are "irreducible" when every overloaded node already
    // holds a copy and is overloaded by its own client demand alone.
    out.irreducible_overload = true;
    for (const std::uint32_t p : report.overloaded(capacity)) {
      if (s.has_copy[p] == 0 || s.demand.rate[p] <= capacity) {
        out.irreducible_overload = false;
        break;
      }
    }
  }
  out.final_max_load = report.max_served;
  out.mean_hops = report.mean_hops;
  out.fault_rate = report.fault_rate;
  out.live_nodes = s.live.live_count();
  std::vector<double> live_loads;
  live_loads.reserve(out.live_nodes);
  for (std::uint32_t p = 0; p < s.live.capacity(); ++p) {
    if (s.live.is_live(p)) live_loads.push_back(report.served[p]);
  }
  out.fairness = util::jain_fairness(live_loads);
  return out;
}

// Validates a policy's proposal; invalid or absent placements end the run
// unbalanced (the system cannot improve by further replication).
bool usable_placement(const Setup& s,
                      const std::optional<core::Pid>& placement) {
  return placement.has_value() && s.has_copy[placement->value()] == 0 &&
         s.live.is_live(placement->value());
}

// The oracle balance loop: a full from-scratch solve per iteration.
ExperimentResult run_on_scratch(Setup& s, const ExperimentConfig& cfg,
                                const PlacementFn& policy, util::Rng& rng) {
  int replicas = 0;
  while (true) {
    const LoadReport report = solve(s, cfg);
    const std::optional<std::uint32_t> hot =
        report.most_overloaded(cfg.capacity);
    if (!hot.has_value()) {
      return finish(s, report, replicas, /*balanced=*/true, cfg.capacity);
    }
    if (replicas >= cfg.max_replicas) {
      return finish(s, report, replicas, /*balanced=*/false, cfg.capacity);
    }

    const PlacementContext ctx{
        s.tree,     s.view,
        core::Pid{*hot},
        s.live,     s.has_copy,
        [&report]() -> const LoadReport& { return report; },
        s.demand,   rng,
        &s.candidates};
    const std::optional<core::Pid> placement = policy(ctx);
    if (!usable_placement(s, placement)) {
      return finish(s, report, replicas, /*balanced=*/false, cfg.capacity);
    }
    s.place_copy(placement->value());
    ++replicas;
  }
}

// The fast balance loop: one solve at entry, then each replica placement
// updates only the accumulators it actually changes, and the overload
// check reads an incrementally maintained max tracker instead of sorting
// the full served vector. Bit-identical to run_on_scratch.
ExperimentResult run_on_incremental(Setup& s, const ExperimentConfig& cfg,
                                    const PlacementFn& policy,
                                    util::Rng& rng) {
  // At b = 0 the view routes exactly as the plain tree (asserted by
  // tests), so the view-based solver covers both cases.
  IncrementalLoadSolver solver(s.view, s.live, s.demand);
  solver.reset(s.has_copy);
  int replicas = 0;
  while (true) {
    const std::optional<std::uint32_t> hot =
        solver.most_overloaded(cfg.capacity);
    if (!hot.has_value()) {
      return finish(s, solver.report(), replicas, /*balanced=*/true,
                    cfg.capacity);
    }
    if (replicas >= cfg.max_replicas) {
      return finish(s, solver.report(), replicas, /*balanced=*/false,
                    cfg.capacity);
    }

    const PlacementContext ctx{
        s.tree,     s.view,
        core::Pid{*hot},
        s.live,     s.has_copy,
        [&solver]() -> const LoadReport& { return solver.report(); },
        s.demand,   rng,
        &s.candidates};
    const std::optional<core::Pid> placement = policy(ctx);
    if (!usable_placement(s, placement)) {
      return finish(s, solver.report(), replicas, /*balanced=*/false,
                    cfg.capacity);
    }
    s.place_copy(placement->value());
    solver.add_copy(placement->value());
    ++replicas;
  }
}

// One replicate-until-balanced run against an existing setup. Exposed so
// the removal pass can replay the loop on its own Setup instance.
ExperimentResult run_on(Setup& s, const ExperimentConfig& cfg,
                        const PlacementFn& policy, util::Rng& rng) {
  if (s.initial_copies == 0) {
    // No live node can hold the file; report the degenerate cell honestly.
    return finish(s, solve(s, cfg), 0, /*balanced=*/false, cfg.capacity);
  }
  return cfg.solver == SolverMode::kScratch
             ? run_on_scratch(s, cfg, policy, rng)
             : run_on_incremental(s, cfg, policy, rng);
}

}  // namespace

ExperimentResult run_replication_experiment(const ExperimentConfig& cfg,
                                            const PlacementFn& policy) {
  util::Rng rng(cfg.seed);
  Setup s(cfg, rng);
  return run_on(s, cfg, policy, rng);
}

RemovalResult run_with_removal(const ExperimentConfig& cfg,
                               const PlacementFn& policy,
                               double removal_threshold) {
  util::Rng rng(cfg.seed);
  Setup s(cfg, rng);
  RemovalResult out;
  out.before = run_on(s, cfg, policy, rng);

  // Counter-based removal: replicas serving below the threshold are
  // dropped (original inserted copies are never removed).
  CopyMap inserted(s.has_copy.size(), 0);
  for (core::Pid holder : s.view.insertion_targets(s.live)) {
    inserted[holder.value()] = 1;
  }
  // Bulk removal invalidates incremental state wholesale, so both modes
  // re-solve; the incremental solver's reset() is the flat-table walk.
  std::optional<IncrementalLoadSolver> solver;
  if (cfg.solver != SolverMode::kScratch) {
    solver.emplace(s.view, s.live, s.demand);
  }
  const auto resolve = [&]() -> LoadReport {
    if (!solver.has_value()) return solve(s, cfg);
    solver->reset(s.has_copy);
    return solver->report();
  };
  const LoadReport final_report = resolve();
  int survivors = 0;
  for (std::uint32_t p = 0; p < s.has_copy.size(); ++p) {
    if (s.has_copy[p] == 0 || inserted[p] != 0) continue;
    if (final_report.served[p] < removal_threshold) {
      s.has_copy[p] = 0;
      s.candidates.add(p);
    } else {
      ++survivors;
    }
  }
  out.replicas_after_removal = survivors;
  out.still_balanced = !resolve().most_overloaded(cfg.capacity).has_value();
  return out;
}

}  // namespace lesslog::sim
