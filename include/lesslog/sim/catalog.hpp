// Multi-file catalog experiments.
//
// The paper's figures use a single popular file; a real deployment hosts a
// catalog with skewed (Zipf) popularity. This harness runs the same
// replicate-until-balanced procedure against many files at once: each
// node's request stream is split over the catalog by popularity weight,
// every file routes through its own lookup tree, and an overloaded node
// replicates the file that contributes the most to *its own* served load —
// a quantity the node observes locally, so the placement stays logless.
#pragma once

#include <cstdint>
#include <vector>

#include "lesslog/sim/experiment.hpp"

namespace lesslog::sim {

struct CatalogConfig {
  int m = 10;
  int b = 0;
  std::uint32_t files = 64;
  /// Zipf exponent of the popularity distribution (0 = uniform catalog).
  double zipf_s = 0.8;
  double dead_fraction = 0.0;
  double total_rate = 10000.0;
  double capacity = 100.0;
  WorkloadKind workload = WorkloadKind::kUniform;
  std::uint64_t seed = 42;
  int max_replicas = 1 << 20;
};

struct CatalogResult {
  int replicas_created = 0;
  bool balanced = false;
  double final_max_load = 0.0;
  double fairness = 0.0;
  std::uint32_t live_nodes = 0;
  /// Replicas per file, indexed by popularity rank (0 = hottest).
  std::vector<int> replicas_by_rank;
  /// Storage copies (inserted + replicas) across the whole catalog.
  std::int64_t total_copies = 0;
};

/// Runs one catalog cell with the given placement policy (the same
/// PlacementFn contract as the single-file harness; the context's tree and
/// load refer to the file being replicated).
[[nodiscard]] CatalogResult run_catalog_experiment(const CatalogConfig& cfg,
                                                   const PlacementFn& policy);

}  // namespace lesslog::sim
