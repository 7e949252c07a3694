// The figure-reproduction harness: replicate-until-load-balanced.
//
// Reproduces the paper's experimental procedure (Section 6): a single
// popular file, a per-node capacity of 100 requests/second, and a
// replication policy invoked on the most overloaded node until no node
// exceeds capacity. The measured quantity is the number of replicas
// created. Policies are injected as callbacks so the same loop drives
// LessLog, the random baseline, and the (perfect-)log-based baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lesslog/sim/load_solver.hpp"
#include "lesslog/sim/workload.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::sim {

/// The random baseline's placement candidates: the live PIDs without a
/// copy, one bit each (word i bit j covers PID 64*i + j, as in
/// util::StatusWord), with their count and one count per 4096-PID block.
/// The harnesses update it with every placement, so drawing the k-th
/// candidate reads the block counts and one block's words instead of
/// scanning all 2^m bits twice per placement.
class PlacementCandidates {
 public:
  PlacementCandidates() = default;
  /// The live PIDs of `live` that hold no copy in `has_copy`.
  PlacementCandidates(const util::StatusWord& live, const CopyMap& has_copy);

  /// A copy was placed on P(p).
  void remove(std::uint32_t p) noexcept;
  /// The copy on P(p), a live node, was dropped.
  void add(std::uint32_t p) noexcept;

  [[nodiscard]] bool contains(std::uint32_t p) const noexcept {
    return (words_[p >> 6] >> (p & 63u)) & 1u;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// The k-th candidate, from 0, in ascending PID order. Precondition:
  /// k < count().
  [[nodiscard]] std::uint32_t select(std::uint64_t k) const noexcept;

 private:
  static constexpr std::size_t kBlockWords = 64;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> block_count_;
  std::uint64_t count_ = 0;
};

/// Everything a replication policy may inspect when asked where to place
/// the next replica. `overloaded` is the node whose load must drop. For
/// log-based policies, `load()` yields the exact per-node forward rates —
/// the strongest possible "client-access log".
struct PlacementContext {
  const core::LookupTree& tree;
  const core::SubtreeView& view;  ///< subtree view (b = 0 in the figures)
  core::Pid overloaded;
  const util::StatusWord& live;
  const CopyMap& has_copy;
  std::function<const LoadReport&()> load;
  const Workload& demand;
  util::Rng& rng;
  /// The live copyless PIDs, when the harness maintains them (the figure
  /// and catalog loops do); policies must fall back to has_copy when null.
  const PlacementCandidates* candidates = nullptr;
};

/// Returns the PID to replicate to, or nullopt when the policy cannot
/// improve the placement (the experiment then stops unbalanced).
using PlacementFn =
    std::function<std::optional<core::Pid>(const PlacementContext&)>;

enum class WorkloadKind : std::uint8_t { kUniform, kLocality };

/// Which load solver drives the balance loop. Both produce bit-identical
/// reports (tests/sim/incremental_solver_test.cpp asserts it); kScratch
/// re-routes every live node on every iteration and is kept as the
/// oracle, kIncremental updates only the accumulators a new replica
/// actually changes.
enum class SolverMode : std::uint8_t { kIncremental, kScratch };

struct ExperimentConfig {
  int m = 10;                    ///< paper: m = 10 (1024-slot space)
  int b = 0;                     ///< paper: b = 0 in all figures
  double dead_fraction = 0.0;    ///< Figures 6/8: 0.1, 0.2, 0.3
  double total_rate = 10000.0;   ///< swept 1,000 .. 20,000 requests/s
  double capacity = 100.0;       ///< paper: 100 requests/s per node
  /// kLocality is the paper's 80/20 model (locality_workload's defaults).
  WorkloadKind workload = WorkloadKind::kUniform;
  std::uint64_t seed = 42;
  /// Safety valve; the loop aborts after this many replicas.
  int max_replicas = 1 << 20;
  SolverMode solver = SolverMode::kIncremental;
};

struct ExperimentResult {
  int replicas_created = 0;
  bool balanced = false;
  /// True when the run ended unbalanced solely because some node's *own*
  /// client demand exceeds capacity while it holds a copy — a state no
  /// replication policy can shed (the node must serve its local clients).
  /// Happens at the extreme of the locality model with many dead nodes.
  bool irreducible_overload = false;
  double final_max_load = 0.0;
  double mean_hops = 0.0;
  double fault_rate = 0.0;
  /// Jain fairness of the final served-load vector over live nodes.
  double fairness = 0.0;
  /// Live node count the experiment ran with.
  std::uint32_t live_nodes = 0;
};

/// Runs one cell: build the ID space (dead nodes chosen uniformly by the
/// seed, the hot file's target always kept live so the experiment is about
/// replication rather than stand-in placement — the advanced-model case is
/// exercised when dead_fraction > 0 by the dead interior nodes), place the
/// initial copy, then loop: solve load → pick most overloaded node →
/// ask `policy` → place replica, until balanced.
[[nodiscard]] ExperimentResult run_replication_experiment(
    const ExperimentConfig& cfg, const PlacementFn& policy);

/// Counter-based removal ablation: after balancing, drop every replica
/// serving fewer than `removal_threshold` requests/s and report how many
/// survive (the paper's "simple counter-based mechanism to remove replicas
/// that are not frequently accessed").
struct RemovalResult {
  ExperimentResult before;
  int replicas_after_removal = 0;
  bool still_balanced = false;
};

[[nodiscard]] RemovalResult run_with_removal(const ExperimentConfig& cfg,
                                             const PlacementFn& policy,
                                             double removal_threshold);

}  // namespace lesslog::sim
