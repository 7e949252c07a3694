// Swarm invariant auditor.
//
// Runs at every quiescent point (epoch end, after heal + repair
// reannounce + settle) and checks what a correct LessLog deployment must
// guarantee no matter which faults were injected:
//
//   1. counter reconciliation — every datagram handed to send()
//      terminated as exactly one of delivered / dropped / burst-dropped /
//      partition-dropped / corrupted / undeliverable (plus duplicated
//      extra copies): sent + duplicated == sum of terminal outcomes;
//   2. corruption accounting — every copy corrupted at send was rejected
//      at decode (injector count == network decode-reject count);
//   3. workload termination — every GET issued by the chaos workload has
//      completed (ok or fault; the client may never lose a request);
//   4. status convergence — after the repair reannounce, every live
//      peer's local status word equals ground truth;
//   5. replica availability — for every ψ-named file, a live GET probe
//      succeeds iff at least one live peer still holds a copy (no file
//      may fault while a live replica is reachable, and a file with no
//      live copy must fault, not hang).
//
// Violations carry the epoch and a human-readable detail string; the
// driver packages them (with the config, seed, and executed schedule)
// into a replay artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lesslog/proto/fault.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::chaos {

struct Violation {
  int epoch = 0;
  std::string check;   ///< invariant name, e.g. "status_convergence"
  std::string detail;  ///< what diverged, with numbers

  friend bool operator==(const Violation&, const Violation&) = default;
};

/// One epoch of SWIM detector accounting, gathered by the driver between
/// its epoch barriers (deltas of the runtime's monotonic tallies).
struct SwimEpochStats {
  bool converged = true;   ///< every live agent's belief == ground truth
  int rounds = 0;          ///< extra protocol periods the epoch needed
  /// No fault rules installed and no membership op executed this epoch —
  /// the wire was clean, so any suspicion at all is a detector bug.
  bool clean_epoch = false;
  std::int64_t suspects = 0;        ///< suspicion verdicts this epoch
  std::int64_t false_suspects = 0;  ///< ... raised on a live node
  std::int64_t false_confirms = 0;  ///< confirms issued on a live node
  /// Per-crash detection latency (crash -> first true confirm anywhere),
  /// for crashes whose detection completed this epoch.
  std::vector<double> detection_latency;
};

class Audit {
 public:
  /// Runs every check at a quiescent point and appends violations to
  /// `out`. `injected` must be the cumulative injected-fault totals
  /// across all plans installed so far (the network's own counters are
  /// cumulative for its lifetime). `issued` / `completed` are the chaos
  /// workload's GET ledger. Issues one probe GET per key (then settles),
  /// so call only at quiescence.
  static void check(proto::ShardedSwarm& swarm,
                    const std::vector<std::uint64_t>& keys,
                    const proto::FaultStats& injected, std::int64_t issued,
                    std::int64_t completed, int epoch,
                    std::vector<Violation>& out);

  /// True when any live peer's store holds `f` (ground truth scan).
  [[nodiscard]] static bool live_copy_exists(proto::ShardedSwarm& swarm,
                                             core::FileId f);

  /// SWIM-mode invariants, run at the same quiescent point as check():
  ///   6. detection convergence — the post-epoch detection window reached
  ///      ground-truth agreement within the round cap (every crash was
  ///      confirmed and every false belief refuted);
  ///   7. clean-wire suspicion — an epoch with no fault windows and no
  ///      membership ops must raise zero suspicions (probes and acks flow
  ///      unhindered, so any suspicion is a detector bug, not a network
  ///      condition).
  /// False suspicion under loss/partition windows is expected SWIM
  /// behavior (that is what the refutation machinery is for) and is
  /// reported as a rate by the bench, not flagged here.
  static void check_swim(const SwimEpochStats& stats, int epoch,
                         std::vector<Violation>& out);
};

}  // namespace lesslog::chaos
