// Deterministic fluid-flow load model.
//
// The paper's metric is the number of replicas required until no node
// serves more than its capacity. Because GETFILE routing is deterministic
// given the copy placement and the liveness map, the steady-state served
// rate of every node is an exact computation: route each live node's
// request stream along its lookup path and credit the first copy-holder.
// This replaces the authors' (unreleased) packet simulator with a
// noise-free equivalent of the same steady-state quantity; the
// event-driven engine (engine.hpp) covers the scenarios where timing
// matters.
//
// Two solvers compute the same report:
//   * solve_load — from-scratch: re-routes every live node per call. Kept
//     as the trusted oracle; O(2^m * depth) per call with a heap-allocated
//     RouteResult per routed node.
//   * IncrementalLoadSolver — solves a copy map in one O(2^m) pass over
//     the routing forest, then updates the report in O(depth) when a copy
//     is added.
// Both quantize each per-node rate once to int64 fixed point (one unit is
// 2^-32 req/s) and accumulate every sum in integers, converting to double
// only to report. A sum therefore does not depend on the order it is
// formed in, and the two reports are bit-identical by arithmetic rather
// than by summation order; tests/sim/incremental_solver_test.cpp asserts
// this after every placement across seeds, dead fractions, workloads,
// policies and b values.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/sim/workload.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::sim {

/// Copy placement for one file: has_copy[pid] != 0 iff P(pid) stores a
/// copy. A plain byte vector keeps the solver branch-light.
using CopyMap = std::vector<char>;

struct LoadReport {
  /// Requests/second served by each node (requests that terminate there).
  std::vector<double> served;
  /// Requests/second each node forwards to its parent (pass-through load).
  std::vector<double> forwarded;
  /// Rate of requests that found no copy anywhere (faults).
  double fault_rate = 0.0;
  /// Rate-weighted mean hop count of a request.
  double mean_hops = 0.0;
  /// Largest served value, and the node carrying it.
  double max_served = 0.0;
  std::uint32_t max_served_pid = 0;

  /// Nodes whose served rate strictly exceeds `capacity`, sorted by
  /// descending load.
  [[nodiscard]] std::vector<std::uint32_t> overloaded(double capacity) const;

  /// The single most overloaded node (served > capacity), without building
  /// or sorting the full list; ties go to the lowest PID. nullopt when no
  /// node exceeds capacity. The balance loop only ever consumes
  /// overloaded(capacity).front(), which this replaces.
  [[nodiscard]] std::optional<std::uint32_t> most_overloaded(
      double capacity) const;
};

/// Exact steady-state load for one file routed through `tree` (b = 0).
/// Throws std::invalid_argument when a demand rate is negative, NaN, or so
/// large that the total demand would overflow the fixed-point sums, or
/// when a dead node carries demand.
[[nodiscard]] LoadReport solve_load(const core::LookupTree& tree,
                                    const CopyMap& has_copy,
                                    const util::StatusWord& live,
                                    const Workload& demand);

/// Same, routed through the fault-tolerant subtree view (b > 0; with b = 0
/// it matches solve_load exactly, which a test asserts).
[[nodiscard]] LoadReport solve_load(const core::SubtreeView& view,
                                    const CopyMap& has_copy,
                                    const util::StatusWord& live,
                                    const Workload& demand);

/// Incremental load solver for the replicate-until-balanced loop.
///
/// Construction quantizes the demand and precomputes, once per experiment
/// cell, the flat within-subtree next-alive-ancestor table (core/routing's
/// AncestorTable generalized over the 2^b fault-tolerance subtrees) and the
/// per-subtree stand-in holders. reset() solves a copy map in one pass over
/// the live nodes, children before parents (ascending subtree VID): each
/// node serves what reaches it if it holds a copy, and otherwise forwards
/// it to its first alive ancestor, or to the stand-in holder when every
/// ancestor is dead.
///
/// add_copy(p) then exploits the structure of a placement. forwarded[p] is
/// exactly the demand that passes P(p) — the demand of p's subtree, one
/// block of bit-reversed PIDs, minus what the holders inside it serve
/// (docs/ALGORITHM.md §8) — and a new copy captures precisely that demand. All of it was served until
/// now by the first holder above p, so the placement moves it from that
/// holder to p, takes it off the forwarded[] entry of every copyless node
/// in between, and shortens each captured request by the nodes it no
/// longer crosses. Every sum is an exact integer, so a placement costs
/// O(depth) and leaves the solver equal to a fresh solve.
///
/// A copy map in which some stream faults in its own subtree (and so
/// migrates to another subtree or is lost) is outside this model; the
/// balance loop never produces one, because every subtree keeps its
/// insertion copy. reset() detects it and takes the whole report from
/// solve_load, and add_copy() re-solves until the map is back inside the
/// model.
class IncrementalLoadSolver {
 public:
  /// View-routed solver (any b >= 0). The view, liveness map and demand
  /// must outlive the solver and stay unchanged; only the copy map may
  /// change between calls. Throws std::invalid_argument as solve_load
  /// does.
  IncrementalLoadSolver(const core::SubtreeView& view,
                        const util::StatusWord& live, const Workload& demand);

  /// Tree-routed solver — identical to the b = 0 view.
  IncrementalLoadSolver(const core::LookupTree& tree,
                        const util::StatusWord& live, const Workload& demand);

  /// Full solve of `has_copy`, replacing any previous state. The solver
  /// keeps a reference to the map: callers mutate it (set has_copy[p] = 1)
  /// and then call add_copy(p).
  void reset(const CopyMap& has_copy);

  /// Incremental update after the caller set has_copy[pid] = 1 on the map
  /// passed to reset(). Requires a preceding reset(); pid must be live and
  /// previously copyless.
  void add_copy(std::uint32_t pid);

  /// The report for the current copy map; reset() and add_copy() keep it
  /// current, so the reference stays valid for the solver's lifetime.
  [[nodiscard]] const LoadReport& report();

  /// The most overloaded node, as LoadReport::most_overloaded, but O(1)
  /// amortized via an incrementally maintained max tracker instead of a
  /// full scan per balance-loop iteration.
  [[nodiscard]] std::optional<std::uint32_t> most_overloaded(double capacity);

  /// False when the current copy map has faulting or migrating streams,
  /// i.e. add_copy() falls back to full resets. Exposed for tests.
  [[nodiscard]] bool fast_path() const noexcept { return !exotic_; }

 private:
  using HeapEntry = std::pair<double, std::uint32_t>;  // (served, pid)
  /// Rate-weighted hop total: up to 2^63 demand units times a hop count.
  __extension__ using HopUnits = __int128;

  void reset_internal();
  void set_served(std::uint32_t pid, std::int64_t units);
  void set_forwarded(std::uint32_t pid, std::int64_t units);
  void prune_heap();

  // Static structure (fixed tree, liveness and demand).
  core::SubtreeView view_;
  const util::StatusWord* live_;
  const Workload* demand_;          ///< for the out-of-model fallback
  std::vector<std::int64_t> units_;  ///< pid -> demand in fixed point
  std::int64_t total_units_ = 0;
  std::vector<std::uint32_t> anchor_;  ///< pid -> within-subtree FP, kNone
  std::vector<std::uint32_t> holder_;  ///< sid -> stand-in holder, kNone
  std::vector<char> root_live_;        ///< sid -> subtree root alive?

  // Dynamic state for the current copy map, in fixed-point units; report_
  // mirrors them as rates.
  const CopyMap* copies_ = nullptr;
  LoadReport report_;
  std::vector<std::int64_t> served_;
  std::vector<std::int64_t> forwarded_;
  /// Sum of forwarded_: every forward is one hop of the stream it carries.
  HopUnits hop_units_ = 0;
  bool exotic_ = false;
  std::vector<HeapEntry> heap_;  ///< lazy max tracker over served[]
};

}  // namespace lesslog::sim
