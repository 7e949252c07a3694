// Sharded discrete-event execution: S independent Engines advanced in
// lockstep time windows on a util::ThreadPool.
//
// The model is classic conservative parallel discrete-event simulation
// (CMB-style with a global window): the simulated system is partitioned
// into S shards, each owning its own EventQueue and RNG stream, and the
// only cross-shard interaction is a message whose delivery latency from
// shard i to shard j has a known positive lower bound L(i, j) (the
// per-pair lookahead). Let T_i be shard i's next-event time and
// rowmin_i = min over j != i of L(i, j). Every event strictly before
//
//   B = min over *populated* shards i (T_i finite) of T_i + rowmin_i
//
// can be executed without synchronization: shard i executes nothing
// before T_i, so any message it sends departs at t >= T_i and arrives at
// t + L(i, j) >= T_i + rowmin_i >= B — at or after the window edge. A
// shard with an empty queue executes nothing and therefore sends
// nothing, which is why it does not constrain the bound. With a uniform
// matrix L(i, j) = L this reduces exactly to the classic global bound
// T + L (min_i(T_i + L) = T + L), so the adaptive window is a strict
// generalization with an identical event schedule on uniform configs.
// The loop is
//
//   repeat:
//     barrier: drain every shard's inbound mailboxes into its queue
//     B = adaptive bound above            (done: no event anywhere)
//     parallel: each shard runs run_before(B)
//
// Determinism: each shard's window execution is sequential and seeded,
// the barrier is a full synchronization, and the drain hook is required
// to merge mailboxes in a fixed order (source-shard index, FIFO within a
// source) — so the result depends only on (seed, S), never on thread
// scheduling. With S = 1 the loop degenerates to run_all() on the one
// engine: byte-identical to the serial engine.
//
// The mailboxes themselves live with the layer that owns the messages
// (proto::ShardRouter for the swarm); this class only fixes the phase
// structure that makes single-producer/single-consumer access safe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lesslog/sim/engine.hpp"
#include "lesslog/util/thread_pool.hpp"

namespace lesslog::sim {

class ShardedEngine {
 public:
  /// Barrier hook: drain_fn(s) must schedule every message currently
  /// mailboxed for shard `s` into shard `s`'s queue, in a fixed order.
  /// Called inside the barrier (all shard workers quiescent); the hook
  /// for shard `s` may touch only shard `s`'s engine and the mailboxes
  /// addressed to `s`.
  using DrainFn = std::function<void(std::size_t)>;

  /// `lookahead` is the uniform cross-shard latency lower bound; it must
  /// be strictly positive when shards > 1 (throws std::invalid_argument
  /// naming the pairwise-floor requirement otherwise — a zero-latency
  /// cross-shard link admits no conservative window). A topology with
  /// wider pairwise bounds can raise them afterwards via
  /// set_pair_lookahead().
  ShardedEngine(std::size_t shards, std::uint64_t seed, double lookahead);

  [[nodiscard]] std::size_t shards() const noexcept {
    return engines_.size();
  }
  [[nodiscard]] Engine& shard(std::size_t s) noexcept { return *engines_[s]; }
  [[nodiscard]] const Engine& shard(std::size_t s) const noexcept {
    return *engines_[s];
  }
  /// The global lookahead floor: the minimum off-diagonal entry of the
  /// pair matrix (the scalar bound itself until set_pair_lookahead ran).
  [[nodiscard]] double lookahead() const noexcept { return lookahead_; }

  /// The installed cross-shard latency lower bound from shard i to j.
  [[nodiscard]] double pair_lookahead(std::size_t i,
                                      std::size_t j) const noexcept {
    return pair_[i * engines_.size() + j];
  }

  /// Installs the per-shard-pair latency lower bounds (S x S, row-major;
  /// the diagonal is ignored). Every off-diagonal entry must be strictly
  /// positive when S > 1 (throws std::invalid_argument otherwise). Call
  /// before any events run; the window bound becomes the adaptive
  /// per-pair form described above.
  void set_pair_lookahead(const std::vector<double>& matrix);

  void set_drain(DrainFn fn) { drain_ = std::move(fn); }

  /// Runs fn(s) once for every shard s and returns when all calls have:
  /// one pool task per shard for S > 1, in shard order on the calling
  /// thread for S = 1. fn must not throw, and fn(s) may write only shard
  /// s's state. The swarm builds each shard's peers this way, so the
  /// page faults of a large set-up spread over the workers.
  void for_each_shard(const std::function<void(std::size_t)>& fn);

  /// Runs every shard to quiescence (all queues and mailboxes empty).
  /// Workers execute the windows; the calling thread coordinates the
  /// barriers. On return every shard's clock sits at the same time (the
  /// last window edge, or the serial finish time for S = 1). Returns the
  /// total number of events executed.
  std::int64_t run_all_windows();

  /// Windowed-parallel analogue of Engine::run_before(t): executes every
  /// event strictly before `t` (windows are clipped at `t`), then
  /// advances every shard's clock to exactly `t`. On return all clocks
  /// agree at `t` and no event before `t` remains in any queue; events
  /// at or after `t` (including mailboxed cross-shard arrivals, which
  /// the window safety argument places at or after the last bound) stay
  /// pending. This is what lets a driver interleave top-level control
  /// actions at deterministic times with sharded execution. Returns
  /// events executed.
  std::int64_t run_until_windows(double t);

  /// The latest time any shard actually executed an event. After
  /// run_all_windows() the shard *clocks* rest on the last window edge,
  /// which depends on the window sequence and hence on the shard count;
  /// this quantity is a property of the executed event set alone, so it
  /// is identical at any shard count whenever the event sets are. The
  /// SWIM chaos driver anchors its epoch timeline here.
  [[nodiscard]] double quiesce_time() const noexcept {
    double t = 0.0;
    for (const auto& e : engines_) {
      t = std::max(t, e->queue().last_fired());
    }
    return t;
  }

  /// Shard s's engine seed. A single-shard group keeps the group seed
  /// itself, so S = 1 reproduces the serial engine bit for bit; larger
  /// groups give every shard an independent SplitMix64-derived stream.
  [[nodiscard]] static std::uint64_t shard_seed(std::uint64_t seed,
                                                std::size_t s,
                                                std::size_t shards) noexcept;

 private:
  /// The adaptive window bound B (infinity at quiescence). Call only at
  /// a barrier, after the drain.
  [[nodiscard]] double window_bound() const noexcept;

  std::vector<std::unique_ptr<Engine>> engines_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when shards == 1
  DrainFn drain_;
  double lookahead_;            ///< min off-diagonal pair bound
  std::vector<double> pair_;    ///< S x S row-major pair bounds
  std::vector<double> rowmin_;  ///< min over j != i of pair_[i][j]
};

}  // namespace lesslog::sim
