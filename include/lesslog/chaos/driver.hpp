// The chaos driver: runs a swarm through a deterministic fault schedule
// and audits every quiescent point.
//
// Epoch structure (cfg.epochs times):
//   1. install this epoch's fault plan (windows all close before the
//      epoch does) on every shard's network, and pre-materialize its
//      membership ops and Poisson GET arrivals into a top-level timeline;
//   2. apply the timeline between run_until() barriers (no control-plane
//      mutation ever executes on a shard worker), run to the epoch
//      boundary, then settle (drains every in-flight exchange, retry and
//      timeout — the wire is clean and idle);
//   3. repair: reannounce ground-truth liveness (the anti-entropy pass a
//      real deployment's failure detector provides) and settle again —
//      or, in SWIM mode, run the detector until it converges;
//   4. audit (chaos/audit.hpp) — violations are collected, not thrown.
//
// Everything — fault windows, op kinds, op targets, workload arrivals —
// derives from ChaosConfig alone, so Driver(cfg).run() is bit-identical
// across runs and machines at a given shard count. The returned Report
// carries the executed schedule for the replay artifact. Workload
// completions are tallied in per-shard cells (each written only by its
// shard's worker).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "lesslog/chaos/audit.hpp"
#include "lesslog/chaos/schedule.hpp"
#include "lesslog/membership/swim.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::chaos {

struct Report {
  ChaosConfig config;
  ChaosRecord record;                ///< the schedule as it executed
  std::vector<Violation> violations; ///< empty on a healthy run
  proto::FaultStats injected;        ///< cumulative injected faults
  std::int64_t workload_issued = 0;
  std::int64_t workload_completed = 0;
  std::int64_t workload_faults = 0;  ///< completed with ok == false
  std::int64_t messages_sent = 0;
  std::int64_t repair_pushes = 0;  ///< kFilePush transfers (repair cost)
  /// Final merged reliability ledger (includes the audit's probe GETs —
  /// the audit checks its exact identities at every quiescent point).
  proto::ReliabilityLedger reliability;
  double sim_time = 0.0;           ///< simulated seconds at the end

  // SWIM mode only (config.swim): detector accounting. swim_epochs has
  // one entry per epoch; detection_latency one entry per crash whose
  // first true confirm happened before its restart.
  std::vector<SwimEpochStats> swim_epochs;
  std::vector<double> detection_latency;
  membership::SwimRuntime::Tally swim;  ///< final cumulative tallies

  [[nodiscard]] bool clean() const noexcept { return violations.empty(); }
};

class Driver {
 public:
  explicit Driver(ChaosConfig cfg);  ///< validates; builds the swarm
  ~Driver();

  /// Runs the whole schedule; callable once.
  Report run();

  /// The swarm under test.
  [[nodiscard]] proto::ShardedSwarm& swarm() noexcept { return *swarm_; }

 private:
  void swim_setup();                ///< build + wire the SwimRuntime
  void swim_attach(core::Pid p);    ///< (re)attach a joiner's agent
  void swim_drain_confirms();       ///< barrier-only: fold confirm events
  [[nodiscard]] std::uint32_t random_live_pid();
  [[nodiscard]] double fleet_now() const;  ///< max over shard clocks
  void issue_get();
  [[nodiscard]] std::int64_t completed() const;
  [[nodiscard]] std::int64_t faults() const;
  /// Injected-fault totals over the run so far, from every shard's
  /// cumulative fault.* cells.
  [[nodiscard]] proto::FaultStats total_injected() const;

  /// Workload completion tallies: cell s is written only by shard s's
  /// worker (a GET's callback fires on the issuing client's home shard),
  /// summed between settles.
  struct ShardTally {
    std::int64_t completed = 0;
    std::int64_t faults = 0;
  };

  ChaosConfig cfg_;
  util::Rng rng_;  ///< the chaos stream (schedule, op targets, workload)
  std::unique_ptr<proto::ShardedSwarm> swarm_;
  std::unique_ptr<membership::SwimRuntime> swim_;  ///< cfg.swim only
  /// A crash awaiting detection: when it happened, and the earliest true
  /// confirm's latency seen so far (negative until one arrives). Folded
  /// in only at top-level barriers (swim_drain_confirms) and finalized at
  /// the epoch's convergence point — or forfeited by a restart that
  /// outruns detection.
  struct CrashSample {
    double crash_time = 0.0;
    double latency = -1.0;
  };
  std::map<std::uint32_t, CrashSample> swim_crash_time_;
  std::vector<double> swim_detect_latency_;
  std::vector<ShardTally> tally_;
  std::vector<std::uint64_t> keys_;
  ChaosRecord record_;
  std::int64_t issued_ = 0;
  std::uint32_t min_live_;  ///< membership ops keep this many peers up
  bool ran_ = false;
};

}  // namespace lesslog::chaos
