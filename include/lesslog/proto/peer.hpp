// A protocol peer: one P2P node as a message-driven actor.
//
// Each peer owns its file store and its *local liveness belief* — a
// util::MutableLivenessView, by default the built-in OracleView kept fresh
// by kStatusAnnounce broadcasts (the paper's Section 5 design), optionally
// replaced by a membership-library SwimView driven by the failure
// detector. Every forwarding decision is made from local state only:
//
//   * kGetRequest — serve if a copy is held, else forward to the first
//     alive subtree ancestor (FP), else to the subtree's stand-in holder;
//     a definitive miss sends a negative kGetReply so the requester can
//     migrate to the next subtree identifier (Section 4) or report a
//     fault;
//   * kInsertRequest / kCreateReplica / kUpdatePush — the storage-side
//     protocol of Sections 2-3, with update pushes pruned at non-holders
//     and fanned down children lists;
//   * kStatusAnnounce — membership bookkeeping.
//
// Replies (kGetReply, kInsertAck) arriving at a peer are surfaced to the
// colocated client through the reply sink.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/file_store.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/proto/network.hpp"
#include "lesslog/util/liveness_view.hpp"
#include "lesslog/util/seq_window.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::proto {

struct PeerConfig {
  // --- Service budget (graceful degradation). A peer over budget
  // refuses further GET work with a kBusy reply instead of silently
  // queueing into a timeout; requesters migrate with backoff. The budget
  // is a deterministic token bucket refilled from simulated time — no
  // RNG involved. 0 disables shedding entirely (the default).
  int busy_budget = 0;       ///< bucket capacity in GETs (serve or forward)
  double busy_refill = 0.0;  ///< tokens restored per simulated second

  /// Throws std::invalid_argument on nonsense (a negative budget or
  /// refill, a budget that can never refill). Called by the Peer
  /// constructor.
  void validate() const;
};

class Peer {
 public:
  using ReplySink = std::function<void(const Message&)>;

  /// A peer with the given PID in an m-bit ID space with b fault bits.
  /// `initial_status` seeds the local liveness view (a joining node gets
  /// it from a neighbor, Section 5.1).
  Peer(core::Pid pid, int b, util::StatusWord initial_status,
       Network& network, PeerConfig cfg = {});

  /// Same, seeding the liveness view from a copy-on-write handle. Swarm
  /// construction hands every peer one shared snapshot instead of 2^m
  /// distinct 2^m-bit copies; a peer's view silently diverges onto its own
  /// copy the first time a membership announcement mutates it.
  Peer(core::Pid pid, int b, util::CowStatus initial_status,
       Network& network, PeerConfig cfg = {});

  [[nodiscard]] core::Pid pid() const noexcept { return pid_; }
  [[nodiscard]] int fault_bits() const noexcept { return b_; }
  [[nodiscard]] core::FileStore& store() noexcept { return store_; }
  [[nodiscard]] const core::FileStore& store() const noexcept {
    return store_;
  }
  /// The liveness bitmap this peer currently believes — i.e. its installed
  /// view's word. Arbitrarily stale relative to ground truth by design.
  [[nodiscard]] const util::StatusWord& status() const noexcept {
    return view_->word();
  }

  /// The peer's liveness belief as a view. Const access only — but the
  /// mutable-view type, so callers can take an O(1) belief snapshot.
  [[nodiscard]] const util::MutableLivenessView& liveness() const noexcept {
    return *view_;
  }

  /// The network this peer sends through. Colocated components (the SWIM
  /// membership agent) share the peer's network rather than holding their
  /// own reference, so a rejoined peer and its agent can never disagree.
  [[nodiscard]] Network& network() const noexcept { return *network_; }

  /// Installs an external liveness belief (e.g. a membership::SwimView).
  /// The view must outlive the peer or be replaced before destruction;
  /// nullptr restores the built-in OracleView. The external view should be
  /// seeded from the current belief by the caller if continuity matters.
  void set_liveness_view(util::MutableLivenessView* view) noexcept {
    view_ = view != nullptr ? view : &oracle_;
  }

  /// Belief updates from membership traffic. learn_dead snapshots the
  /// prior belief and runs Section 5.3 crash recovery against it — this is
  /// the single entry point both the announcement path and the SWIM
  /// confirm path use, so recovery behavior is mode-independent.
  void learn_live(core::Pid subject);
  void learn_dead(core::Pid subject);

  /// Wires this peer's handler into the network.
  void attach();
  void detach();

  /// Reinitializes this peer object for a re-join of the same PID: fresh
  /// status word, empty store, cleared placement memory and in-flight
  /// pushes, counters zeroed, handler re-attached. Peers are reused across
  /// membership cycles (never destroyed mid-run) so engine timers that
  /// captured this object can never dangle. Takes a copy-on-write handle:
  /// the swarm shares one snapshot instead of copying a 2^m-bit word per
  /// rejoin.
  void rejoin(util::CowStatus fresh_status);

  /// Sets where kGetReply / kInsertAck messages are surfaced (the
  /// colocated client).
  void set_reply_sink(ReplySink sink) { reply_sink_ = std::move(sink); }

  /// Points the service accounting at the swarm's pre-resolved metric
  /// cells (served / forwarded / push retries / busy sheds). Optional.
  void set_metrics(const obs::WireMetrics* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Routes SWIM traffic (kPing / kPingAck / kPingReq) to the membership
  /// runtime colocated with this peer. Unset, such messages are dropped —
  /// an oracle-mode peer never receives them in the first place. The same
  /// (ctx, fn) raw-slot shape as Network::attach_raw: one indirect call,
  /// no std::function on the probe path.
  void set_membership_hook(void* ctx, Network::RawHandler fn) noexcept {
    membership_ctx_ = ctx;
    membership_fn_ = fn;
  }

  /// Message entry point (also called directly by tests).
  void handle(const Message& m);

  /// Section 5.2, the data-motion half of a graceful leave: pushes every
  /// inserted file to its post-departure holder (computed with this node
  /// marked dead), discards replicas, and clears the store. The caller
  /// broadcasts the status change and detaches afterwards. Only correct
  /// for ψ-named files (target = ψ(file), the paper's naming rule).
  void graceful_leave();

  /// The file's target root under the paper's naming rule r = ψ(f).
  [[nodiscard]] core::Pid target_of(core::FileId f) const noexcept;

  /// Requests served from the local store.
  [[nodiscard]] std::int64_t served() const noexcept { return served_; }
  /// Requests forwarded toward other peers.
  [[nodiscard]] std::int64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] const PeerConfig& config() const noexcept { return cfg_; }

  /// Measurement-window boundary for the closed-loop controller: zeroes
  /// the service counters and every copy's access count.
  void reset_window() noexcept;

  /// Autonomous REPLICATEFILE: picks this peer's locally hottest file (by
  /// access count since the last window reset, local knowledge only) and
  /// pushes one replica of it to the LessLog placement, remembering its
  /// own past placements so successive sheds walk the children list.
  /// Returns the placement, or nullopt when nothing can be shed.
  std::optional<core::Pid> shed_hottest();

 private:
  void on_get(const Message& m);
  /// Refills the service token bucket from simulated time and tries to
  /// take one token; false = over budget, shed this GET.
  [[nodiscard]] bool admit_get();
  /// kBusy back to the requester: same addressing as reply_get, but a
  /// distinct wire type so the client migrates instead of retrying here.
  void reply_busy(const Message& request);
  void on_insert(const Message& m);
  void on_create_replica(const Message& m);
  void on_update(const Message& m);
  void on_status(const Message& m);
  void on_file_push(const Message& m);
  void on_push_ack(const Message& m);
  void on_reclaim(const Message& m);
  /// Section 5.3: after learning of a crash, re-insert files whose holder
  /// in the crashed node's subtree was lost, pulling from this node's own
  /// inserted copies. Exactly one sibling holder pushes (deterministic
  /// designation), so recovery costs one message per lost copy.
  void recover_after_crash(core::Pid crashed,
                           const util::StatusWord& before);
  /// Reliable file transfer: pushes are acked (kFilePushAck) and
  /// retransmitted on a fixed timer — a lost datagram must not lose a
  /// file's only authoritative copy during membership data motion.
  void push_file(core::FileId f, std::uint64_t version, core::Pid to);
  void transmit_push(std::uint64_t id);
  void reply_get(const Message& request, bool ok, std::uint64_t version);
  /// Next hop for a get toward target root `r` within this peer's subtree
  /// of that tree; nullopt = definitive local miss.
  [[nodiscard]] std::optional<core::Pid> next_hop(core::Pid r) const;

  /// In-flight file push awaiting its ack.
  struct PendingPush {
    Message msg;
    int retries = 0;
    int generation = 0;
  };
  /// Shed and push bookkeeping (104 B plus the map's nodes), out of
  /// line: only the replication controller (shed_hottest) and membership
  /// data motion (push_file) touch it, so a peer of a read-only swarm
  /// never allocates it and stays 256 B inline. Created by cold() on the
  /// first shed decision or push; rejoin() drops it.
  struct Cold {
    /// Replica placements this peer has made, per file. A peer cannot
    /// know about copies created elsewhere (logless!), but it is the
    /// sole author of its own sheds, so tracking them walks the children
    /// list correctly. Deliberately still an unordered_map: touched once
    /// per shed decision (the controller's window cadence), never per
    /// delivered message.
    std::unordered_map<core::FileId, std::vector<core::Pid>> placed;
    /// In-flight file pushes awaiting acks, keyed by request id. Push
    /// ids come from next_push_id_, strictly increasing per peer, so the
    /// sliding-window slot map replaces a hash map on the ack/timeout
    /// path.
    util::SeqWindow<PendingPush> pending_pushes;
  };
  /// The cold block, created on first use.
  [[nodiscard]] Cold& cold();
  /// The pending push under `id`, or nullptr (acked, expired, or dropped
  /// with the cold block by a rejoin — stale push timers land here).
  [[nodiscard]] PendingPush* find_push(std::uint64_t id) noexcept {
    return cold_ != nullptr ? cold_->pending_pushes.find(id) : nullptr;
  }

  // Hot-first member order: a forwarded get reads pid_/b_/view_, probes
  // store_'s index, then touches network_/metrics_ and one counter.
  // Laying those out contiguously keeps a hop through a random
  // (cache-cold) peer to the first line or two of the object; the cold
  // tail (reply sink, cold-block pointer, membership relay) never loads
  // on the forwarding path. The OracleView lives inline so oracle mode
  // stays allocation-free; view_ points at it unless a SwimView is
  // installed.
  core::Pid pid_;
  int b_;
  util::MutableLivenessView* view_;
  util::OracleView oracle_;
  Network* network_;
  const obs::WireMetrics* metrics_ = nullptr;
  std::int64_t served_ = 0;
  std::int64_t forwarded_ = 0;
  /// Service-budget bucket: the budget>0 check and (when enabled) the
  /// token accounting run once per delivered GET, so the config sits in
  /// the warm section next to the counters it guards.
  PeerConfig cfg_;
  double busy_tokens_ = 0.0;
  double busy_last_refill_ = 0.0;
  core::FileStore store_;
  ReplySink reply_sink_;
  /// Null until the first shed or push; see Cold.
  std::unique_ptr<Cold> cold_;
  std::uint64_t next_push_id_;
  /// Cold: SWIM traffic relay into the colocated membership runtime.
  void* membership_ctx_ = nullptr;
  Network::RawHandler membership_fn_ = nullptr;
};

}  // namespace lesslog::proto
