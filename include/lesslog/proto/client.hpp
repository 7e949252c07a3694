// Client-side request tracking: correlation ids, timeouts, retries,
// subtree migration on definitive misses, and latency accounting.
//
// The network is best-effort (messages can be dropped), so the client owns
// reliability: a get that hears nothing within the timeout is retried up
// to `max_retries` times; a *negative* reply triggers migration to the
// next subtree identifier (Section 4) before counting a fault.
//
// On top of that fixed-timer core sits an opt-in adaptive layer (every
// knob defaults off, leaving the wire schedule byte-identical):
//
//   * `adaptive` — retry timers from a Jacobson/Karn SRTT/RTTVAR estimator
//     instead of the fixed timeout, with exponential backoff and
//     deterministic per-(seed, request-id, leg) jitter on retries;
//   * `hedge_percentile` — once the first leg is slower than that
//     percentile of recent Karn-clean latencies, a correlation-id-guarded
//     second GET races down the next replica subtree; first answer wins,
//     the loser's reply is discarded without double-counting;
//   * kBusy replies (peer-side load shedding) migrate the request to the
//     next subtree after a capped exponential backoff instead of burning
//     the full timeout;
//   * `suspicion_routing` — entry-point selection consults the installed
//     liveness view's failure-detector suspicion (membership::SwimView),
//     skipping suspected-dead targets up front.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lesslog/proto/peer.hpp"
#include "lesslog/proto/rtt_estimator.hpp"
#include "lesslog/util/seq_window.hpp"

namespace lesslog::proto {

struct ClientConfig {
  double timeout = 0.25;  ///< seconds before a retry
  int max_retries = 2;    ///< per (attempt, subtree) leg

  // --- Adaptive reliability layer. Every default below keeps the client
  // byte-identical to the fixed-timer client: no adaptive timers, no
  // hedging, no suspicion routing, zero extra RNG draws. The layer's
  // clamps, backoff and jitter are constants in client.cpp.
  bool adaptive = false;  ///< SRTT/RTTVAR retry timers + backoff/jitter
  double hedge_percentile = 0.0;  ///< 0 = no hedging; else in [0.5, 1)
  bool suspicion_routing = false;  ///< skip suspected-dead entry targets
  std::uint64_t seed = 0;  ///< salts the deterministic retry jitter hash

  /// Throws std::invalid_argument on nonsense (timeout not strictly
  /// positive, negative max_retries, a hedge percentile outside its
  /// range).
  /// Called by the Client constructor.
  void validate() const;
};

struct GetResult {
  bool ok = false;
  std::uint64_t version = 0;
  double latency = 0.0;  ///< issue -> final reply (simulated seconds)
  int hops = 0;
  int retries = 0;
  int migrations = 0;
};

/// The reliability layer's counters, as ShardedSwarm::reliability_ledger()
/// sums them from the swarm's WireMetrics cells. At quiescence two exact
/// identities hold: issued == ok + faults, and hedges_launched ==
/// hedge_won + hedge_cancelled — every hedge leg is resolved exactly once
/// no matter how many replies the wire drops or duplicates. The chaos
/// audit checks both.
struct ReliabilityLedger {
  std::int64_t issued = 0;           ///< client.gets
  std::int64_t ok = 0;               ///< client.get_latency samples
  std::int64_t faults = 0;           ///< client.faults
  std::int64_t rtt_samples = 0;      ///< Karn-clean samples absorbed
  std::int64_t hedges_launched = 0;  ///< second legs actually sent
  std::int64_t hedge_won = 0;        ///< requests completed by the hedge leg
  std::int64_t hedge_cancelled = 0;  ///< hedge legs resolved by the other leg
  std::int64_t busy_received = 0;    ///< kBusy replies acted on
  std::int64_t busy_shed = 0;        ///< GETs refused (peer side)

  friend bool operator==(const ReliabilityLedger&,
                         const ReliabilityLedger&) = default;
};

class Client {
 public:
  using GetCallback = std::function<void(const GetResult&)>;

  /// A client colocated with `home`; installs itself as the peer's reply
  /// sink.
  Client(Peer& home, Network& network, ClientConfig cfg = {});

  /// Issues GETFILE for `file` whose target root is `r`; `done` fires
  /// exactly once.
  void get(core::FileId file, core::Pid r, GetCallback done);

  /// Sends an insert of `file` to holder `at` (the caller has resolved
  /// FINDLIVENODE); `done(ok)` fires on ack or after retries expire.
  void insert(core::FileId file, core::Pid r, core::Pid at,
              std::function<void(bool)> done);

  [[nodiscard]] std::int64_t requests_issued() const noexcept {
    return issued_;
  }

  /// Points the reliability accounting at the swarm's pre-resolved metric
  /// cells (gets / retries / timeouts / migrations / faults / latency,
  /// and the adaptive layer's hedge / RTT / kBusy counts). Optional.
  void set_metrics(const obs::WireMetrics* metrics) noexcept {
    metrics_ = metrics;
  }
  [[nodiscard]] std::int64_t faults() const noexcept { return faults_; }
  [[nodiscard]] const std::vector<double>& latencies() const noexcept {
    return latencies_;
  }

  /// The Jacobson/Karn estimator state (tests and diagnostics). A client
  /// with adaptive timers and hedging both off keeps no estimator and
  /// returns a shared unprimed one.
  [[nodiscard]] const RttEstimator& estimator() const noexcept;

 private:
  struct PendingGet {
    core::FileId file;
    core::Pid target;
    /// The fixed-lane retry timer of the current leg while it is queued
    /// (empty under adaptive timers). Four bytes: it sits in the padding
    /// after `target`, so a pending slot is no larger for it.
    sim::LaneTimer timer;
    GetCallback done;
    double issued_at = 0.0;
    int retries = 0;
    int migrations = 0;
    std::uint32_t subtree_attempt = 0;  ///< offset from home subtree id
    /// Increments on every transmission; timeouts armed for an older
    /// generation are stale and ignored (migration resets retries, so a
    /// retry counter alone cannot identify the current leg).
    int generation = 0;
    int transmissions = 0;  ///< GETs actually sent (Karn: sample iff == 1)
    bool hedged = false;         ///< a hedge leg was launched
    bool hedge_resolved = false; ///< hedge answered (miss/shed) w/o winning
    std::uint32_t hedge_attempt = 0;  ///< subtree offset the hedge probes
    std::uint64_t hedge_id = 0;  ///< correlation id of the hedge leg
    int busy_bounces = 0;  ///< kBusy sheds since the last subtree wrap
    int busy_wraps = 0;    ///< completed wraps (capped at max_retries)
  };
  struct PendingInsert {
    core::FileId file;
    core::Pid target;
    core::Pid at;
    std::function<void(bool)> done;
    int retries = 0;
  };

  void on_reply(const Message& m);
  void send_get(std::uint64_t id);
  /// Arms the retry timer of `g`'s current leg (generation).
  void arm_get_timeout(std::uint64_t id, PendingGet& g);
  void handle_get_timeout(std::uint64_t id, int generation);
  void send_insert(std::uint64_t id);
  /// Completes a pending get. `found` is the caller's already-resolved
  /// window slot for `id` (every caller has just looked it up — passing
  /// it through avoids a second find on the reply hot path). `via_hedge`
  /// attributes the completion to the hedge leg for the ledger.
  void finish_get(std::uint64_t id, PendingGet* found, bool ok,
                  std::uint64_t version, int hops, bool via_hedge);
  /// Advances a pending get to the next replica subtree (after a
  /// definitive miss, a kBusy shed, or an entry subtree with no live
  /// node). Adopts or skips an outstanding hedge leg that already covers
  /// the target subtree; finishes the request as a fault when the
  /// identifiers are exhausted — unless the walk was shed somewhere, in
  /// which case it wraps and revisits (a busy peer is loaded, not dead;
  /// each wrap consumes the sheds seen so far and the wrap count is
  /// capped, so termination is preserved). `delay > 0` defers the
  /// re-send (the BUSY migrate-with-backoff path).
  void migrate_get(std::uint64_t id, PendingGet* found, int hops,
                   double delay, bool reset_retries);
  /// Arms the one-shot hedge timer for a fresh request.
  void arm_hedge(std::uint64_t id);
  /// Sends the correlation-id-guarded second leg down the next subtree.
  void launch_hedge(std::uint64_t id, PendingGet& g);
  /// Entry PID for subtree attempt `attempt` of a get toward `target`:
  /// this node's counterpart in that subtree (nearest live proxy if the
  /// counterpart is dead), with failure-detector suspects masked out
  /// first when suspicion routing is on.
  [[nodiscard]] std::optional<core::Pid> entry_at(
      core::Pid target, std::uint32_t attempt) const;
  /// Backoff delay before re-routing a request a peer shed with kBusy.
  [[nodiscard]] double busy_delay(const PendingGet& g) const noexcept;
  /// Deterministic uniform [0,1) hash of (seed, request id, leg) — jitter
  /// without consuming any shared RNG stream.
  [[nodiscard]] double leg_jitter(std::uint64_t id,
                                  int generation) const noexcept;
  /// True when any knob wants RTT samples collected — and therefore the
  /// out-of-line Reliability block allocated.
  [[nodiscard]] bool reliability_active() const noexcept {
    return cfg_.adaptive || cfg_.hedge_percentile > 0.0;
  }

  /// State that only adaptive timers and hedging read. Both default off,
  /// so it lives out of line: the constructor allocates it iff
  /// reliability_active(), and a default client (216 B inline) carries
  /// one null pointer instead of these 600 bytes (the estimator's
  /// 64-sample ring is 512).
  struct Reliability {
    RttEstimator estimator;
    /// Hedge correlation id -> primary request id. A reply that misses
    /// `gets_` but hits this table belongs to a hedge leg; one that misses
    /// both is a late duplicate and is dropped — the guard that makes the
    /// losing leg's reply a no-op.
    util::SeqWindow<std::uint64_t> hedge_ids;
  };

  Peer* home_;
  Network* network_;
  ClientConfig cfg_;
  const obs::WireMetrics* metrics_ = nullptr;
  std::uint64_t next_id_;
  // Pending tables keyed by the strictly increasing request id: a
  // sliding-window slot map, so the per-reply/per-timeout correlation
  // lookup is a mask + compare instead of a hash-map walk. Each ring is
  // allocated on first insert, one slot to start (a PendingGet slot is
  // 120 B), and doubles only while more requests are in flight.
  util::SeqWindow<PendingGet> gets_;
  util::SeqWindow<PendingInsert> inserts_;
  std::int64_t issued_ = 0;
  std::int64_t faults_ = 0;
  std::vector<double> latencies_;
  /// Null unless reliability_active(); see Reliability.
  std::unique_ptr<Reliability> reliability_;
};

}  // namespace lesslog::proto
