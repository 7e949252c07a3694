// Deterministic chaos schedules.
//
// A ChaosConfig plus a seed fully determines a run: the per-epoch fault
// windows (Gilbert–Elliott bursts, corruption, duplication, delay spikes,
// partitions), the membership ops (crash / restart / depart / join) and
// the Poisson GET workload are all derived from one chaos Rng, so the
// same config replays the exact same fault sequence — the property the
// replay artifact (chaos/replay.hpp) is built on.
#pragma once

#include <cstdint>
#include <vector>

#include "lesslog/proto/fault.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::chaos {

/// SWIM mode's post-epoch period cap. Healing a partition's false
/// confirms needs roughly two dead-reclaim rotation sweeps of the ID
/// space (the second clears re-poisoning by stale dead gossip still in
/// flight after the first direct contact); compound-fault epochs have
/// been observed needing ~74 periods at the default geometry, so 128
/// leaves headroom.
inline constexpr int kSwimConvergenceRounds = 128;
static_assert(kSwimConvergenceRounds >= 1);

/// Everything a chaos run needs; validate() rejects nonsense. The swarm
/// under test keeps NetworkConfig::drop_probability at zero — loss is
/// expressed through windowed burst rules instead, so the post-heal
/// repair phase (reannounce + settle) runs on a clean wire and status
/// convergence is achievable.
struct ChaosConfig {
  int m = 6;                 ///< ID-space width (N = 2^m slots)
  int b = 2;                 ///< fault-tolerance subtree bits
  std::uint32_t nodes = 40;  ///< initially live peers
  std::uint64_t seed = 1;    ///< the ONLY source of randomness
  int epochs = 5;
  double epoch_length = 30.0;    ///< simulated seconds per epoch
  double fault_intensity = 0.5;  ///< scales every fault probability, [0, 1]
  int files = 48;                ///< ψ-named catalog size
  double get_rate = 20.0;        ///< Poisson GETs/sec during an epoch
  /// Engine shards for the proto::ShardedSwarm under test. Every shard
  /// count runs the same pre-materialized top-level op timeline, so the
  /// chaos stream draws in the same order at any S; link jitter comes
  /// from per-shard engine streams, though, so each shard count is its
  /// own determinism domain: runs replay bit-identically at the same S.
  std::size_t shards = 1;

  // Fault-class toggles (the intensity sweep flips these off to isolate
  // classes). Crash -> restart pairs are always on.
  bool bursts = true;
  bool partitions = true;
  bool corruption = true;
  bool duplicates = true;
  bool delay_spikes = true;
  bool churn = true;    ///< graceful depart / fresh join

  /// TEST-ONLY broken-recovery mode: crashes become silent (no failure
  /// announcement, no post-heal reannounce), deliberately violating the
  /// Section 5 membership contract so the auditor has something to catch.
  bool silent_crashes = false;

  /// SWIM membership mode (the membership library, at its protocol
  /// constants): crashes go unannounced and the per-epoch ground-truth
  /// reannounce is replaced by the failure detector's own convergence —
  /// after each epoch settles, the driver runs extra protocol periods
  /// until every live agent's belief matches ground truth (capped by
  /// kSwimConvergenceRounds).
  bool swim = false;

  /// Per-hop uniform latency jitter passed to the swarm's network. The
  /// default matches NetworkConfig's, keeping oracle runs byte-identical;
  /// abl_membership zeroes it so delivery times (and therefore detection
  /// measurements) are identical across shard counts.
  double net_jitter = 0.005;

  /// --- Adaptive request-reliability layer, threaded into the swarm's
  /// ClientConfig/PeerConfig (see those for semantics). All defaults off:
  /// a run with the layer disabled is byte-identical to one built before
  /// these knobs existed.
  bool adaptive_timeouts = false;   ///< SRTT/RTTVAR GET timers + backoff
  double hedge_percentile = 0.0;    ///< 0 = off; else [0.5, 1)
  bool suspicion_routing = false;   ///< SWIM-suspicion-aware entry points
  int busy_budget = 0;              ///< peer GET service budget; 0 = off
  double busy_refill = 0.0;         ///< budget tokens per simulated second

  void validate() const;  ///< throws std::invalid_argument
};

/// One membership action as it actually executed (PIDs are resolved at
/// fire time from ground truth, then recorded here).
enum class OpKind : std::uint8_t {
  kCrash,
  kRestart,
  kDepart,
  kJoin,
  kSilentCrash,
};

[[nodiscard]] const char* op_kind_name(OpKind k) noexcept;

struct OpRecord {
  double time = 0.0;
  OpKind kind = OpKind::kCrash;
  std::uint32_t pid = 0;

  friend bool operator==(const OpRecord&, const OpRecord&) = default;
};

struct RuleRecord {
  int epoch = 0;
  proto::FaultRule rule;

  friend bool operator==(const RuleRecord&, const RuleRecord&) = default;
};

/// The schedule as it actually ran — the replayable half of a report.
struct ChaosRecord {
  std::vector<RuleRecord> rules;
  std::vector<OpRecord> ops;

  friend bool operator==(const ChaosRecord&, const ChaosRecord&) = default;
};

/// Builds epoch `epoch`'s fault plan with absolute windows inside
/// [now, now + cfg.epoch_length), drawing window placement from `rng`.
/// Every window closes strictly before the epoch ends, so the epoch's
/// settle point is fault-free. Partitions appear on odd epochs only
/// (even epochs establish a healthy baseline between splits).
[[nodiscard]] proto::FaultPlan make_epoch_plan(const ChaosConfig& cfg,
                                               util::Rng& rng, int epoch,
                                               double now);

}  // namespace lesslog::chaos
