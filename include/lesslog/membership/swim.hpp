// lesslog::membership — a SWIM-style failure detector over the wire seam.
//
// The paper's Section 5 maintains each node's status word by *broadcast*:
// every membership change is announced to everyone, and the simulator's
// oracle mode additionally lets the swarm announce crashes the crashed
// node could never have sent. This library replaces that oracle with a
// real detector in the SWIM family (Das, Gupta, Motivala, DSN'02; the
// cs425_mp3 heartbeat/suspect lists are the direct exemplar):
//
//   * every protocol period T (`kProtocolPeriod`), each live agent pings
//     one uniformly random member it believes alive;
//   * a missing direct ack within `kDirectTimeout` triggers an indirect
//     probe through k = `kProxies` proxies (kPingReq; the proxy relays a
//     kPing with the origin in `requester`, and the target acks the
//     origin);
//   * a probe that ends the period unanswered makes the target *suspect*;
//     a suspect not refuted within `kSuspectPeriods` periods is confirmed
//     dead — only then does the agent's local belief flip and Section 5.3
//     crash recovery run (through proto::Peer::learn_dead, the same entry
//     point the announcement path uses);
//   * suspicion, death, and refutation spread by *piggybacked gossip*:
//     every SWIM datagram carries one (pid, state, incarnation) update
//     packed into the existing 43-byte wire format's file/version fields;
//   * incarnation numbers order the gossip: alive(i) kills suspect(j<i)
//     and refutes dead(j<i); a node that hears itself suspected bumps its
//     own incarnation and gossips the refutation.
//
// One deliberate deviation from wire-faithful SWIM, possible because the
// simulated network cannot spoof a sender: *receiving any SWIM datagram
// from a node is direct evidence it is alive*, so a believed-dead sender
// is resurrected (with an incarnation bump) on receipt. This shortcut
// only accelerates recovery from false confirms; detection latency and
// false-suspicion measurements are unaffected (see docs/MEMBERSHIP.md).
//
// Determinism: each agent draws targets and proxies from its own
// util::Rng seeded by (runtime seed, pid), ticks at times that are a pure
// function of (pid, period), and keeps its member table in ordered maps —
// so a run is a pure function of the seed and the fault schedule, and is
// *identical across shard counts* whenever the network itself draws no
// per-hop randomness (jitter = 0; see abl_membership).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "lesslog/obs/sink.hpp"
#include "lesslog/obs/wire_metrics.hpp"
#include "lesslog/proto/peer.hpp"
#include "lesslog/sim/engine.hpp"
#include "lesslog/util/liveness_view.hpp"
#include "lesslog/util/rng.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::membership {

// Protocol constants. Every agent runs with these; only the seed of the
// per-agent (seed, pid) streams varies between runs.
inline constexpr double kProtocolPeriod = 1.0;  ///< T (simulated seconds)
inline constexpr double kDirectTimeout = 0.25;  ///< direct-ack wait
inline constexpr int kProxies = 3;         ///< k indirect probes per miss
inline constexpr int kSuspectPeriods = 3;  ///< suspect -> confirmed dead
inline constexpr int kGossipRepeats = 4;   ///< piggybacks per update
static_assert(kDirectTimeout > 0.0 && kDirectTimeout < kProtocolPeriod);
static_assert(kProxies >= 0 && kSuspectPeriods >= 1 && kGossipRepeats >= 1);

/// The SWIM-driven liveness belief a Peer routes by. Mechanically a
/// copy-on-write bitmap like util::OracleView; the difference is who
/// feeds it — the failure detector's confirms and alive-evidence instead
/// of ground-truth announcements. Suspects stay *live* in the bitmap
/// (SWIM routes to suspects until the confirm), so a false suspicion
/// never costs availability by itself.
class SwimView final : public util::MutableLivenessView {
 public:
  explicit SwimView(util::CowStatus status) noexcept
      : MutableLivenessView(&status.read()), status_(std::move(status)) {}

  void believe_live(std::uint32_t pid) override {
    if (!status_.read().is_live(pid)) {
      status_.mutate().set_live(pid);
      rebind(&status_.read());
    }
  }

  void believe_dead(std::uint32_t pid) override {
    if (status_.read().is_live(pid)) {
      status_.mutate().set_dead(pid);
      rebind(&status_.read());
    }
  }

  [[nodiscard]] util::CowStatus snapshot() const override {
    return status_.snapshot();
  }

  void reset(util::CowStatus fresh) override {
    status_ = std::move(fresh);
    rebind(&status_.read());
    suspects_.clear();  // a re-seeded belief starts with no doubts
  }

  /// Soft doubt: the owning agent mirrors its member-table suspect
  /// entries here (raise on suspect, clear on refute/confirm/reset), so
  /// routing can skip doubted targets without reaching into the agent.
  [[nodiscard]] const std::vector<std::uint32_t>* suspects()
      const noexcept override {
    return suspects_.empty() ? nullptr : &suspects_;
  }

  void set_suspected(std::uint32_t pid, bool suspected) {
    const auto it =
        std::lower_bound(suspects_.begin(), suspects_.end(), pid);
    const bool present = it != suspects_.end() && *it == pid;
    if (suspected && !present) {
      suspects_.insert(it, pid);
    } else if (!suspected && present) {
      suspects_.erase(it);
    }
  }

  void clear_suspects() { suspects_.clear(); }

 private:
  util::CowStatus status_;
  std::vector<std::uint32_t> suspects_;  ///< ascending; typically tiny
};

class SwimRuntime;

/// Protocol tallies (monotonic). Each agent keeps its own — everything an
/// agent does runs on its home shard's worker, so the counters have a
/// single writer and the fleet total (summed at top-level barriers) is
/// identical for every shard count. A shared set of counters bumped from
/// every worker would race, and the lost updates would make the totals
/// depend on the shard layout.
struct Tally {
  std::int64_t pings = 0;
  std::int64_t ping_reqs = 0;
  std::int64_t acks = 0;
  std::int64_t suspects = 0;
  std::int64_t confirms = 0;
  std::int64_t false_suspects = 0;   ///< suspect raised on a live node
  std::int64_t false_confirms = 0;   ///< confirm issued on a live node
  std::int64_t refutations = 0;
  std::int64_t incarnation_bumps = 0;
  std::int64_t gossip_bytes = 0;

  Tally& operator+=(const Tally& o) noexcept {
    pings += o.pings;
    ping_reqs += o.ping_reqs;
    acks += o.acks;
    suspects += o.suspects;
    confirms += o.confirms;
    false_suspects += o.false_suspects;
    false_confirms += o.false_confirms;
    refutations += o.refutations;
    incarnation_bumps += o.incarnation_bumps;
    gossip_bytes += o.gossip_bytes;
    return *this;
  }

  friend bool operator==(const Tally&, const Tally&) = default;
};

/// One confirmed death as some agent observed it. Logged per agent
/// (single writer) and drained at top-level barriers, where the driver
/// takes the *sim-time minimum* over true confirms as a crash's detection
/// latency — a shared "first confirm wins" callback would record thread
/// arrival order, which varies with the shard layout.
struct ConfirmEvent {
  double time = 0.0;         ///< simulated confirm instant
  std::uint32_t subject = 0; ///< who was confirmed dead
  std::uint32_t by = 0;      ///< the confirming agent
  bool false_confirm = false;
};

/// One node's failure detector: the per-peer state machine (probe cycle,
/// member table with incarnations, gossip queue) plus its SwimView.
/// Created and owned by the SwimRuntime; wired into the colocated Peer
/// via set_liveness_view + set_membership_hook.
class SwimAgent {
 public:
  SwimAgent(SwimRuntime& runtime, proto::Peer& peer, sim::Engine& engine,
            const obs::WireMetrics* metrics);

  [[nodiscard]] core::Pid pid() const noexcept { return peer_->pid(); }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] SwimView& view() noexcept { return view_; }
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return self_incarnation_;
  }

  /// The peer's process comes up / goes down (ground truth about *its
  /// own* process only — a node knows whether it is running).
  void enable();
  void disable();

  /// Schedules this agent's periodic ticks up to the runtime horizon.
  void start_ticking();

  /// Wire entry (from Peer's membership hook).
  void on_message(const proto::Message& m);

 private:
  enum State : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };
  struct Member {
    State state = kAlive;
    std::uint64_t incarnation = 0;
    std::int64_t suspect_period = 0;  ///< period index the suspicion began
  };
  struct Gossip {
    std::uint32_t pid = 0;
    State state = kAlive;
    std::uint64_t incarnation = 0;
    int remaining = 0;
  };

  void tick();
  void probe();
  void probe_dead();  ///< dead-node reclaim ping (no suspicion machinery)
  void send_ping(core::Pid to, core::Pid origin, std::uint64_t probe_id);
  void send_ping_reqs();
  void send_ack(const proto::Message& ping);
  void start_suspect(std::uint32_t pid);
  void confirm(std::uint32_t pid, Member& mm);
  void apply_gossip(std::uint32_t pid, State state, std::uint64_t inc);
  void direct_evidence_alive(core::Pid sender);
  void enqueue_gossip(std::uint32_t pid, State state, std::uint64_t inc);
  void attach_payload(proto::Message& m);
  [[nodiscard]] std::optional<core::Pid> pick_live(core::Pid exclude_a,
                                                   core::Pid exclude_b);
  [[nodiscard]] Member& member(std::uint32_t pid);

  friend class SwimRuntime;  ///< sums tally_, drains confirm_log_

  SwimRuntime* runtime_;
  proto::Peer* peer_;
  sim::Engine* engine_;
  const obs::WireMetrics* metrics_;
  SwimView view_;
  util::Rng rng_;
  bool enabled_ = true;
  bool ticking_ = false;
  /// Bumped on every disable/enable so timers scheduled before a
  /// membership cycle see a stale generation and no-op (peers are reused
  /// across rejoin cycles, and so are their agents).
  std::uint64_t generation_ = 0;
  std::uint64_t self_incarnation_ = 0;
  std::int64_t period_index_ = 0;
  /// Next slot on the absolute tick grid (k*period + phase); -1 until
  /// anchored. See start_ticking for why the grid is absolute.
  std::int64_t tick_k_ = -1;
  /// Known remote states, keyed by PID. Ordered map: confirm scans
  /// iterate it, and their order decides message order — an unordered
  /// container would leak address entropy into the schedule.
  std::map<std::uint32_t, Member> members_;
  std::deque<Gossip> gossip_queue_;
  std::uint32_t dead_cursor_ = 0;  ///< reclaim rotation position
  /// Single-writer accounting (see Tally / ConfirmEvent): mutated only on
  /// this agent's home shard worker, read by the runtime at barriers.
  Tally tally_;
  std::vector<ConfirmEvent> confirm_log_;
  // Outstanding probe bookkeeping (one probe in flight per period).
  std::uint64_t next_probe_id_;
  std::uint64_t outstanding_id_ = 0;
  std::uint32_t outstanding_target_ = 0;
  bool outstanding_ = false;
  bool acked_ = false;
};

/// Owns every agent, drives the armed detection window, and aggregates
/// protocol tallies. Registered as a DeliverySink on each shard network
/// so membership transitions (crash/join) enable and disable the right
/// agent. The tallies are plain integers on the runtime, which the chaos
/// driver and the membership bench read between barriers; the per-shard
/// obs counters carry the same events into metric snapshots.
class SwimRuntime final : public obs::DeliverySink {
 public:
  /// `seed` is the base of every agent's (seed, pid) stream.
  SwimRuntime(std::uint64_t seed, int m);
  ~SwimRuntime() override;

  SwimRuntime(const SwimRuntime&) = delete;
  SwimRuntime& operator=(const SwimRuntime&) = delete;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] double horizon() const noexcept { return horizon_; }

  /// Creates (or re-seeds) the agent colocated with `peer`, installs its
  /// SwimView as the peer's liveness belief (seeded from the peer's
  /// current belief) and hooks SWIM traffic. `engine` is the peer's home
  /// shard engine; `metrics` its shard's cells (may be null).
  SwimAgent& attach_peer(proto::Peer& peer, sim::Engine& engine,
                         const obs::WireMetrics* metrics);

  [[nodiscard]] SwimAgent* agent(core::Pid p) noexcept {
    return p.value() < agents_.size() ? agents_[p.value()].get() : nullptr;
  }

  /// Extends the detection window to `horizon` (absolute simulated time)
  /// and schedules ticks for every enabled agent. Bounded ticking is what
  /// lets a swarm settle(): past the horizon no agent reschedules.
  void arm(double horizon);

  /// True when every enabled agent's belief equals `truth` — the epoch's
  /// detection-convergence predicate.
  [[nodiscard]] bool converged(const util::StatusWord& truth) const;

  /// Ground truth oracle for false-suspicion accounting only (never read
  /// by the protocol): queried at suspect/confirm instants, which sit
  /// between the top-level barriers where truth mutates.
  void set_truth_provider(std::function<const util::StatusWord*()> fn) {
    truth_ = std::move(fn);
  }

  /// Fleet-total protocol tallies since construction (monotonic): the sum
  /// of every agent's single-writer share. Barrier-only — callable when no
  /// shard worker is running (between run_until / settle calls).
  using Tally = membership::Tally;
  [[nodiscard]] Tally tally() const;

  /// Moves out every agent's confirm log, merged and sorted by
  /// (time, subject, by) so the order is a pure function of the schedule.
  /// Barrier-only, like tally().
  [[nodiscard]] std::vector<ConfirmEvent> drain_confirms();

  // DeliverySink: membership transitions flow in via notify_peer_event.
  void on_deliver(double, const proto::Message&) override {}
  void on_peer(double time, core::Pid peer, bool live) override;

 private:
  friend class SwimAgent;
  [[nodiscard]] bool truth_live(std::uint32_t pid) const {
    if (!truth_) return true;  // no oracle wired: nothing counts as false
    const util::StatusWord* word = truth_();
    return word == nullptr || word->is_live(pid);
  }

  std::uint64_t seed_;
  int m_;
  double horizon_ = 0.0;
  std::vector<std::unique_ptr<SwimAgent>> agents_;
  std::function<const util::StatusWord*()> truth_;
};

// -- Piggyback wire packing -------------------------------------------------
//
// One gossip update rides the unused file/version fields of a SWIM
// message: version carries the incarnation verbatim; file packs
//   bits  0..31  subject pid
//   bits 32..33  state (0 alive, 1 suspect, 2 dead)
//   bit  40      has-payload flag
// A SWIM message with bit 40 clear carries no update (nothing queued and
// no self-alive default — only pre-enable traffic, which does not occur).

inline constexpr std::uint64_t kSwimPayloadFlag = 1ULL << 40;

[[nodiscard]] inline std::uint64_t pack_gossip(std::uint32_t pid,
                                               std::uint8_t state) noexcept {
  return kSwimPayloadFlag | (static_cast<std::uint64_t>(state & 3u) << 32) |
         pid;
}

[[nodiscard]] inline bool has_gossip(std::uint64_t packed) noexcept {
  return (packed & kSwimPayloadFlag) != 0;
}

[[nodiscard]] inline std::uint32_t gossip_pid(std::uint64_t packed) noexcept {
  return static_cast<std::uint32_t>(packed & 0xFFFFFFFFu);
}

[[nodiscard]] inline std::uint8_t gossip_state(std::uint64_t packed) noexcept {
  return static_cast<std::uint8_t>((packed >> 32) & 3u);
}

}  // namespace lesslog::membership
