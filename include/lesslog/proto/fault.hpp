// Composable per-link fault model for the simulated network.
//
// A FaultPlan is a seed plus a list of time-windowed rules; Network
// installs it and schedules each rule's activation/deactivation through
// the event engine, so a run is bit-reproducible from (swarm seed, plan).
// The injector draws from its own Rng — the engine's stream is untouched,
// and a network with no plan installed takes a branch-free fast path, so
// fault injection is zero-cost when unused.
//
// Rule kinds (full semantics in docs/ROBUSTNESS.md):
//   * kBurstLoss  — Gilbert–Elliott two-state loss chain, one chain per
//     directed link with its own RNG stream seeded from (plan seed, rule,
//     activation generation, link), so a link's loss pattern is a pure
//     function of its own datagram count — invariant to shard layout;
//   * kDuplicate  — per-datagram duplication: a second copy travels with
//     its own jitter/delay draw;
//   * kDelaySpike — per-datagram extra one-way delay, inducing reordering
//     against messages sent later;
//   * kCorrupt    — per-datagram payload corruption: the wire image is
//     scrambled and its type tag invalidated, so the receiver's decode
//     rejects it (the corrupted datagram still occupies the wire);
//   * kPartition  — a PID-set split: traffic between the group and its
//     complement is dropped from `start` until the `stop` heal.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "lesslog/core/ids.hpp"
#include "lesslog/proto/message.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::proto {

enum class FaultKind : std::uint8_t {
  kBurstLoss,
  kDuplicate,
  kDelaySpike,
  kCorrupt,
  kPartition,
};

[[nodiscard]] const char* fault_kind_name(FaultKind k) noexcept;

/// One time-windowed fault rule. Fields unused by a given kind keep their
/// defaults; validate() rejects nonsense (probabilities outside [0, 1],
/// stop <= start, empty partition groups, ...).
struct FaultRule {
  FaultKind kind = FaultKind::kBurstLoss;
  double start = 0.0;  ///< activation time (engine time, seconds)
  double stop = std::numeric_limits<double>::infinity();  ///< heal time
  double probability = 0.0;  ///< duplicate / delay-spike / corrupt chance

  // Gilbert–Elliott parameters (kBurstLoss). The chain starts Good; each
  // datagram on a link is lost with the current state's loss rate, then
  // the state advances.
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  double loss_good = 0.0;
  double loss_bad = 1.0;

  double extra_delay = 0.0;  ///< kDelaySpike magnitude, seconds

  /// kPartition: PIDs on side A (the complement is side B). Sorted by
  /// the injector at activation.
  std::vector<std::uint32_t> group;

  [[nodiscard]] static FaultRule burst_loss(double start, double stop,
                                            double p_good_to_bad,
                                            double p_bad_to_good,
                                            double loss_bad,
                                            double loss_good = 0.0);
  [[nodiscard]] static FaultRule duplicate(double start, double stop,
                                           double probability);
  [[nodiscard]] static FaultRule delay_spike(double start, double stop,
                                             double probability,
                                             double extra_delay);
  [[nodiscard]] static FaultRule corrupt(double start, double stop,
                                         double probability);
  [[nodiscard]] static FaultRule partition(double start, double stop,
                                           std::vector<std::uint32_t> group);

  friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

/// A seed-reproducible fault schedule. Installing the same plan into the
/// same swarm replays the exact same fault decisions.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }

  /// Throws std::invalid_argument naming the first malformed rule.
  void validate() const;
};

/// Injected-fault accounting, kept by the injector (the network's own
/// sent/dropped/delivered counters stay fault-agnostic). At quiescence:
///   sent + duplicated == delivered + dropped + burst_dropped
///                        + partition_dropped + undeliverable + corrupted
/// — the reconciliation invariant chaos::Audit checks.
struct FaultStats {
  std::int64_t burst_dropped = 0;
  std::int64_t partition_dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t corrupted = 0;  ///< corrupted at send (rejected at decode)
  std::int64_t delay_spikes = 0;

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// The runtime half of a FaultPlan: owns the rule windows, the per-link
/// Gilbert–Elliott states, and a private Rng. Network consults it per
/// datagram via the primitives below; rule windows are toggled by events
/// the network schedules at install time.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Rule-window toggles (scheduled through the engine by
  /// Network::install_fault_plan).
  void activate(std::size_t rule_index);
  void deactivate(std::size_t rule_index);

  // -- Per-datagram primitives, in pipeline order ------------------------
  /// True when any active partition separates `from` and `to`.
  [[nodiscard]] bool partition_blocks(core::Pid from, core::Pid to);
  /// True when the datagram should carry a duplicate copy.
  [[nodiscard]] bool duplicate();
  /// Advances the (from, to) link's Gilbert–Elliott chains; true = lost.
  [[nodiscard]] bool burst_drop(core::Pid from, core::Pid to);
  /// Maybe scrambles `wire` (invalid type tag + one random byte); true
  /// when corrupted.
  [[nodiscard]] bool corrupt(WireBuffer& wire);
  /// Extra one-way delay for this copy (0.0 most of the time).
  [[nodiscard]] double delay_spike();
  /// Jitter draw for duplicate copies, from the injector's own stream.
  [[nodiscard]] double jitter(double magnitude);

  /// True while any rule window is open (the audit's "wire is clean"
  /// precondition is !any_active()).
  [[nodiscard]] bool any_active() const noexcept { return active_count_ > 0; }

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  [[nodiscard]] bool in_group(const std::vector<std::uint32_t>& group,
                              std::uint32_t pid) const noexcept;

  /// One directed link's Gilbert–Elliott chain: its own Rng stream plus
  /// the current state (true = Bad; chains start Good). Giving every link
  /// a private stream — seeded from (plan seed, rule, activation
  /// generation, link key) alone — makes each chain a pure function of
  /// the datagram count on that link, independent of how traffic on
  /// *other* links interleaves. That is what keeps lossy runs
  /// shard-count-invariant: shard layout permutes the global datagram
  /// order but never a single link's order.
  struct LinkChain {
    util::Rng rng;
    bool bad = false;
  };

  /// Deterministic seed for one link's chain. Folding in the rule's
  /// activation generation makes a healed-and-reopened window start
  /// fresh chains with fresh streams instead of replaying the previous
  /// window's draws.
  [[nodiscard]] std::uint64_t chain_seed(std::size_t rule_index,
                                         std::uint64_t key) const noexcept;

  FaultPlan plan_;
  util::Rng rng_;
  std::vector<bool> active_;  ///< parallel to plan_.rules
  std::size_t active_count_ = 0;
  /// Gilbert–Elliott chain states: one map per rule (indexed like
  /// plan_.rules), keyed by the directed link (from << 30 | to; PIDs fit
  /// kMaxIdBits = 30 bits). Deliberately still an unordered_map on the
  /// otherwise map-free per-datagram path: it is only consulted while a
  /// burst-loss rule is *active* (the chaos soak; the clean fast path
  /// never reaches the injector), the key space is quadratic in the PID
  /// space so a flat table is infeasible, and only links that carried
  /// traffic during a burst ever materialize a chain.
  std::vector<std::unordered_map<std::uint64_t, LinkChain>> link_state_;
  /// Per-rule activation generation (how many times the window opened);
  /// part of every chain seed.
  std::vector<std::uint32_t> generation_;
  FaultStats stats_;
};

}  // namespace lesslog::proto
