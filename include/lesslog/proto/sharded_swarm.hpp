// ShardedSwarm — a whole message-driven LessLog deployment in one object.
//
// Owns the event engines, the networks, one Peer per live PID, and one
// colocated Client per peer. Provides the data-plane operations of the
// paper as asynchronous protocol exchanges (insert / get / update /
// replicate / membership announcements) plus helpers to drive the
// simulation and collect latency statistics. This is the layer the
// latency/overhead benches, the chaos driver and the protocol example run
// on; the direct-call core::System remains the convenient API for
// logic-level work (its routing decisions and this layer's are verified
// against each other in tests/integration/).
//
// Peers are partitioned across S shards (Config::shards, default 1) by a
// ShardMap policy (contiguous PID ranges, or the XOR-subtree locality map
// — see shard_map.hpp). Each shard owns a full vertical slice: its own
// sim::Engine (independent RNG stream), Network, and obs::Registry with
// the standard WireMetrics catalog. Intra-shard traffic
// takes the plain Network path; a datagram whose destination lives on
// another shard is intercepted by the network's forward hook *after* the
// sender's latency/fault pipeline ran, mailboxed in the ShardRouter, and
// scheduled into the destination shard's queue at the next window
// barrier (see sim::ShardedEngine for why the conservative window makes
// that timestamp still in the destination's future). With S = 1 no hook
// is installed and settle() is the plain serial event loop.
//
// The cross-shard lookahead is adaptive and per-shard-pair: the
// constructor computes L(i, j) = base_latency + latency_per_unit * a
// conservative lower bound on the distance between shard i's and shard
// j's coordinate regions (a coarse occupancy grid over the geographic
// placement; just base_latency without geography) and installs the
// matrix into the engine. A clustered geography with range sharding
// therefore runs wider windows than the global base-latency bound; it
// also makes base_latency == 0 schedulable when geography alone keeps
// every pairwise floor positive (the constructor rejects only the
// genuinely-unschedulable zero-floor case).
//
// Determinism: shard execution is sequential within a window, barriers
// are full synchronizations, and mailboxes drain in fixed order — so a
// run is a pure function of (seed, S, map).
//
// PID records. Each PID's Peer and Client sit side by side in one
// 512-byte record of an array indexed by PID and sized for all 2^m PIDs,
// so a delivery and the reply its client handles touch one block, and
// under the range map each shard's PIDs are one contiguous slice. The
// array is 2 MB aligned and advised for transparent huge pages
// (util::allocate_huge): a GET of the million-peer swarm visits about
// m/2 random peers, and on 4 KB pages each visit also misses the TLB. A
// record is constructed when its PID first joins and lives until the
// swarm does. For S > 1 each shard's worker constructs that shard's
// records (sim::ShardedEngine::for_each_shard), in ascending PID order,
// which spreads the first-touch page faults of a large set-up over the
// workers and leaves every shard's state as the serial order would.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "lesslog/core/replication.hpp"
#include "lesslog/obs/sampler.hpp"
#include "lesslog/obs/sink.hpp"
#include "lesslog/proto/client.hpp"
#include "lesslog/proto/network.hpp"
#include "lesslog/proto/peer.hpp"
#include "lesslog/proto/shard_map.hpp"
#include "lesslog/proto/shard_router.hpp"
#include "lesslog/sim/sharded_engine.hpp"

namespace lesslog::proto {

class ShardedSwarm {
 public:
  struct Config {
    int m = 8;
    int b = 0;
    std::uint32_t nodes = 0;  ///< live PIDs [0, nodes)
    std::uint64_t seed = 1;
    std::size_t shards = 1;
    ShardMap::Kind shard_map = ShardMap::Kind::kRange;
    NetworkConfig net;
    ClientConfig client;
    PeerConfig peer;
    /// Geographic latency model applied to every shard's network (slots
    /// defaulted to 2^m when 0). Also feeds the pairwise lookahead
    /// floors.
    std::optional<Geography> geo;
  };

  /// Throws std::invalid_argument when shards exceeds the ID space, or
  /// when shards > 1 and the pairwise cross-shard latency floor is not
  /// strictly positive for every pair (base_latency == 0 with no
  /// geographic separation between shard regions) — the adaptive
  /// lookahead has no conservative window to schedule then.
  explicit ShardedSwarm(Config cfg);

  // The forward/drain hooks capture `this`; the object is pinned.
  ShardedSwarm(const ShardedSwarm&) = delete;
  ShardedSwarm& operator=(const ShardedSwarm&) = delete;
  /// Destroys every client, then every peer.
  ~ShardedSwarm();

  [[nodiscard]] std::size_t shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] double lookahead() const noexcept {
    return engines_.lookahead();
  }
  /// The installed cross-shard latency lower bound from shard i to j.
  [[nodiscard]] double pair_lookahead(std::size_t i,
                                      std::size_t j) const noexcept {
    return engines_.pair_lookahead(i, j);
  }
  [[nodiscard]] const ShardMap& map() const noexcept {
    return router_.map();
  }
  [[nodiscard]] std::size_t shard_of(core::Pid p) const noexcept {
    return router_.shard_of(p);
  }
  [[nodiscard]] sim::Engine& engine(std::size_t s) noexcept {
    return engines_.shard(s);
  }
  /// Latest time any shard executed an event — unlike the shard clocks
  /// (which settle() leaves on a layout-dependent window edge), this is
  /// determined by the executed event set alone. The SWIM chaos driver
  /// anchors its epoch timeline here so the anchor is identical at any
  /// shard count.
  [[nodiscard]] double quiesce_time() const noexcept {
    return engines_.quiesce_time();
  }
  [[nodiscard]] Network& network(std::size_t s) noexcept {
    return shards_[s]->network;
  }
  [[nodiscard]] const obs::WireMetrics& metrics(std::size_t s) const {
    return shards_[s]->metrics;
  }
  /// Precondition for both: p has joined at some point (every PID below
  /// Config::nodes has). The address is fixed for the swarm's lifetime.
  [[nodiscard]] Peer& peer(core::Pid p) {
    return *std::launder(reinterpret_cast<Peer*>(records_[p.value()].peer));
  }
  [[nodiscard]] Client& client(core::Pid p) {
    return *std::launder(
        reinterpret_cast<Client*>(records_[p.value()].client));
  }
  [[nodiscard]] const util::StatusWord& status() const noexcept {
    return status_.read();
  }
  [[nodiscard]] int width() const noexcept { return cfg_.m; }

  /// Runs every shard to quiescence: every in-flight protocol exchange,
  /// timeouts included, has resolved (windowed-parallel for S > 1, the
  /// plain serial event loop for S = 1). Returns events executed. On
  /// return all shard clocks agree, so control-plane operations issued
  /// between settles never schedule into another shard's past.
  std::int64_t settle();

  /// Runs every event strictly before simulated time `t`, then aligns
  /// every shard's clock at exactly `t` (sim::ShardedEngine::
  /// run_until_windows). This is the chaos driver's seam: it applies
  /// membership ops and workload arrivals at deterministic top-level
  /// points between segments.
  std::int64_t run_until(double t);

  // -- Data plane ----------------------------------------------------------

  /// Inserts a file with target root r: resolves the 2^b per-subtree
  /// holders from the *issuing node's* status word (the paper's
  /// ADVANCEDINSERTFILE) and sends one insert per holder. Asynchronous;
  /// settle() to complete.
  void insert(core::FileId file, core::Pid r, core::Pid issuer);

  /// Inserts under the paper's naming rule: the FileId is the key and the
  /// target is r = ψ(key). Membership data motion (graceful leave, crash
  /// recovery, join reclaim) is only defined for ψ-named files.
  core::FileId insert_named(std::uint64_t key, core::Pid issuer);

  /// Issues a get from `at`; the result lands in the given callback (and
  /// in the per-client latency stats). The callback runs on `at`'s home
  /// shard.
  void get(core::FileId file, core::Pid r, core::Pid at,
           Client::GetCallback done = nullptr);

  /// Sends an update push (new version) into the tree of r from `issuer`:
  /// one push per subtree stand-in, as Section 4 prescribes.
  void update(core::FileId file, core::Pid r, std::uint64_t version,
              core::Pid issuer);

  /// Issues REPLICATEFILE at overloaded holder `overloaded`: computes the
  /// placement locally (bit operations on the holder's own status word
  /// plus which copies it knows of via `holds`, drawing randomness from
  /// the holder's shard engine) and sends kCreateReplica on the holder's
  /// shard network. Call between settles (top level).
  std::optional<core::Pid> replicate(core::FileId file, core::Pid r,
                                     core::Pid overloaded,
                                     const core::HoldsCopyFn& holds);

  // -- Membership ----------------------------------------------------------

  /// Membership with the Section 5 data-motion protocols on the wire:
  ///   * join — the node comes online, broadcasts its status, and issues a
  ///     kReclaim sweep so current holders push back the ψ-named files it
  ///     is now authoritative for;
  ///   * depart — graceful leave: inserted files are pushed to their
  ///     post-departure holders before the status broadcast and detach;
  ///   * crash — the store vanishes; surviving sibling-subtree holders
  ///     re-insert the lost copies when the failure announcement reaches
  ///     them (b > 0; with b = 0 unreplicated files are simply lost).
  core::Pid join(std::optional<core::Pid> requested = std::nullopt);
  void depart(core::Pid p);
  void crash(core::Pid p);

  /// Crash recovery, step 2: the crashed node comes back under the same
  /// PID with an empty store (its disk is gone). A restart is a rejoin —
  /// status broadcast plus the Section 5.1 kReclaim sweep, so surviving
  /// holders push the ψ-named files it is authoritative for back to it.
  /// Precondition: p previously crashed (or departed).
  void restart(core::Pid p);

  /// Repair broadcast: re-announces the ground-truth liveness of every
  /// PID to all live peers. Status announcements ride the unreliable
  /// datagram wire, so a burst window or partition can leave peers with
  /// stale views; the chaos driver calls this after a heal (the modelled
  /// equivalent of anti-entropy gossip catching up).
  void reannounce();

  /// SWIM-mode failure: the node goes dark with no ground-truth status
  /// broadcast — *detecting* the crash (and announcing it, which triggers
  /// Section 5.3 recovery) is the membership protocol's job. Mechanically
  /// identical to crash_silent; the two exist separately because their
  /// contracts differ: this one expects a failure detector to close the
  /// loop, crash_silent expects the auditor to flag the resulting hole.
  void crash_unannounced(core::Pid p);

  /// TEST-ONLY failure mode: the node vanishes without any failure
  /// announcement ever being sent — deliberately breaking the Section 5.3
  /// recovery contract. Used to prove the chaos auditor catches a broken
  /// recovery protocol; never part of a correct schedule.
  void crash_silent(core::Pid p);

  // -- Closed-loop replication ---------------------------------------------

  /// Closed-loop overload control: every `window` seconds each live peer
  /// inspects its own served counters (local knowledge only — no logs
  /// leave the node); if it served more than capacity*window requests it
  /// replicates its locally hottest file via the LessLog rule, then
  /// resets its counters. Runs until `stop_at`. This is the autonomous
  /// behaviour the paper's REPLICATEFILE loop describes ("we continue
  /// replicating f ... until P(r) is not overloaded").
  ///
  /// `removal_threshold` (requests/s; 0 disables) adds the paper's
  /// "simple counter-based mechanism to remove replicas that are not
  /// frequently accessed": a peer whose *replica* served fewer than
  /// removal_threshold * window requests in the window drops it — a
  /// purely local decision, no messages.
  ///
  /// Each shard's engine runs its own tick over the peers that live on
  /// that shard, in PID order (shard-local counters, stores, and RNG — no
  /// cross-shard reads during windows, so the parallel run stays
  /// race-free and deterministic).
  void enable_auto_replication(double capacity, double window,
                               double stop_at,
                               double removal_threshold = 0.0);

  /// Replicas created / removed by the closed loop so far (summed over
  /// shards; read at quiescence).
  [[nodiscard]] std::int64_t auto_replicas() const noexcept;
  [[nodiscard]] std::int64_t auto_removals() const noexcept;

  // -- Aggregates ----------------------------------------------------------

  /// Client stats across all peers, in PID order (shard-independent).
  [[nodiscard]] std::int64_t total_faults() const;
  [[nodiscard]] std::vector<double> all_latencies() const;

  /// The reliability layer's counters summed over the shards' WireMetrics
  /// cells (client GETs, hedges and kBusy replies; peers' sheds). The
  /// cells are cumulative for the swarm's lifetime — a PID's client and
  /// peer survive every rejoin — and the chaos audit checks the ledger's
  /// exact identities at quiescence.
  [[nodiscard]] ReliabilityLedger reliability_ledger() const;

  /// Network counters summed over shards. Cross-shard datagrams are
  /// counted once: sent on the source shard, delivered (or lost) on the
  /// destination shard.
  [[nodiscard]] std::int64_t messages_sent() const noexcept;
  [[nodiscard]] std::int64_t bytes_sent() const noexcept;
  [[nodiscard]] std::int64_t delivered() const noexcept;
  [[nodiscard]] std::int64_t undeliverable() const noexcept;
  [[nodiscard]] std::int64_t dropped() const noexcept;
  [[nodiscard]] std::int64_t corrupted() const noexcept;

  /// Fraction of forward-hook-inspected datagrams that crossed a shard
  /// boundary: cross / (cross + intra) over the per-shard WireMetrics
  /// counters. 0.0 for S = 1 (no hook).
  [[nodiscard]] double cross_shard_fraction() const noexcept;

  // -- Observability -------------------------------------------------------

  /// Swarm-wide metric snapshot: the S per-shard registries share one
  /// registration catalog (see obs::WireMetrics), so their snapshots
  /// merge index-for-index (obs::Snapshot::merge_from).
  [[nodiscard]] obs::Snapshot metrics_snapshot(double time = 0.0) const;

  /// Registers an observer for every delivered datagram plus membership
  /// events, on every shard's network (notified in registration order,
  /// before the receiving peer's handler). Peers joining later are
  /// covered automatically. The sink must be removed (or the swarm
  /// destroyed) before the sink dies. With S > 1 each shard's worker
  /// thread calls the sink for its own deliveries, concurrently with the
  /// other shards, so the sink may touch only per-shard state.
  void add_sink(obs::DeliverySink& sink);
  void remove_sink(obs::DeliverySink& sink);

  /// Samples every shard's registry each `interval` simulated seconds
  /// until `stop_at` (one obs::Sampler per shard engine, ticking at the
  /// same simulated times), refreshing the derived gauges right before
  /// each snapshot. They are refreshed shard-locally: queue_depth is the
  /// shard's own queue (merged: fleet total), live_peers is set by shard
  /// 0 from ground truth, and max_served is the shard's own hottest peer
  /// (merged: sum of per-shard maxima — an upper bound on the global max
  /// for S > 1, exact for S = 1).
  void enable_metrics_sampling(double interval, double stop_at);

  /// The swarm-wide sampled series: sample k of every shard merged
  /// index-for-index (rebuilt on call; read at quiescence). Empty until
  /// enable_metrics_sampling ran.
  [[nodiscard]] const obs::TimeSeries& metrics_series();

 private:
  /// One shard's vertical slice. Registration order inside `registry`
  /// matches every other shard's, which is what makes snapshots merge.
  struct Shard {
    Network network;
    obs::Registry registry;
    obs::WireMetrics metrics;
    Shard(sim::Engine& engine, const NetworkConfig& net,
          Network::PidSlice slice)
        : network(engine, net, slice), metrics(registry) {}
  };

  /// Everything the constructor derives before engines exist: the map,
  /// the normalized geography, and the pairwise lookahead matrix (whose
  /// minimum seeds the engine; computing it throws the precise
  /// unschedulable-config rejection).
  struct Plan {
    ShardMap map;
    std::optional<Geography> geo;
    std::vector<double> pair;  ///< S x S row-major L(i, j)
    double floor = 0.0;        ///< min off-diagonal entry
  };
  [[nodiscard]] static Plan make_plan(const Config& cfg);
  ShardedSwarm(Config cfg, Plan plan);

  /// One PID's protocol objects (see the header comment): the peer's
  /// hot lines start the record, on a cache-line boundary.
  struct alignas(64) Record {
    alignas(Peer) std::byte peer[sizeof(Peer)];
    alignas(Client) std::byte client[sizeof(Client)];
  };
  struct RecordsDelete {
    std::size_t bytes;
    void operator()(Record* records) const noexcept;
  };

  [[nodiscard]] Shard& home(core::Pid p) {
    return *shards_[router_.shard_of(p)];
  }
  [[nodiscard]] const Client& client(std::uint32_t p) const {
    return *std::launder(reinterpret_cast<const Client*>(records_[p].client));
  }
  /// Constructs p's peer and client in its record. Touches only p's
  /// record and p's home shard, so shards may build concurrently; the
  /// caller marks p in made_.
  void make_peer(core::Pid p, util::CowStatus view);
  void broadcast_status(core::Pid about, bool live);
  void auto_replication_tick(std::size_t s, double capacity, double window,
                             double stop_at, double removal_threshold);

  Config cfg_;
  /// Ground-truth liveness as a copy-on-write handle: construction and
  /// every rejoin hand peers an O(1) snapshot of it instead of a 2^m-bit
  /// copy; truth mutations clone once while snapshots are outstanding.
  util::CowStatus status_;
  sim::ShardedEngine engines_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// One record per PID of the ID space; see the header comment.
  std::unique_ptr<Record[], RecordsDelete> records_;
  /// Whether PID p ever had a peer: exactly the records constructed.
  std::vector<bool> made_;
  /// Per-shard controller tallies: cell s is written only by shard s's
  /// worker (inside its tick), summed at quiescence.
  std::vector<std::int64_t> auto_replicas_by_shard_;
  std::vector<std::int64_t> auto_removals_by_shard_;
  std::vector<std::unique_ptr<obs::Sampler>> samplers_;
  obs::TimeSeries merged_series_;  ///< metrics_series() scratch
};

}  // namespace lesslog::proto
