#include "lesslog/sim/sharded_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "lesslog/util/rng.hpp"

namespace lesslog::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::uint64_t ShardedEngine::shard_seed(std::uint64_t seed, std::size_t s,
                                        std::size_t shards) noexcept {
  if (shards == 1) return seed;
  // One SplitMix64 step over (seed, shard index): streams are
  // independent across shards and stable across runs and S values.
  std::uint64_t state =
      seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(s) + 1));
  return util::splitmix64(state);
}

ShardedEngine::ShardedEngine(std::size_t shards, std::uint64_t seed,
                             double lookahead)
    : lookahead_(lookahead) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  }
  if (shards > 1 && !(lookahead > 0.0)) {
    throw std::invalid_argument(
        "ShardedEngine: running more than one shard requires a strictly "
        "positive cross-shard latency lower bound for every shard pair "
        "(the conservative lookahead); this configuration's pairwise "
        "floor is zero, so no parallel window can be scheduled");
  }
  pair_.assign(shards * shards, lookahead);
  rowmin_.assign(shards, lookahead);
  engines_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    engines_.push_back(
        std::make_unique<Engine>(shard_seed(seed, s, shards)));
  }
  if (shards > 1) {
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<unsigned>(shards));
  }
}

void ShardedEngine::set_pair_lookahead(const std::vector<double>& matrix) {
  const std::size_t n = engines_.size();
  if (matrix.size() != n * n) {
    throw std::invalid_argument(
        "ShardedEngine: pair-lookahead matrix must be S x S");
  }
  double floor = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double l = matrix[i * n + j];
      if (n > 1 && !(l > 0.0)) {
        throw std::invalid_argument(
            "ShardedEngine: every off-diagonal pair lookahead must be "
            "strictly positive (adaptive conservative window)");
      }
      floor = std::min(floor, l);
    }
  }
  pair_ = matrix;
  for (std::size_t i = 0; i < n; ++i) {
    double row = kInf;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) row = std::min(row, pair_[i * n + j]);
    }
    rowmin_[i] = row;
  }
  if (n > 1) lookahead_ = floor;
}

void ShardedEngine::for_each_shard(
    const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr) {
    for (std::size_t s = 0; s < engines_.size(); ++s) fn(s);
    return;
  }
  util::parallel_for(*pool_, engines_.size(), fn);
}

double ShardedEngine::window_bound() const noexcept {
  // B = min over populated shards i of T_i + rowmin_i. An idle shard
  // (empty queue) executes nothing in the window, hence sends nothing,
  // so it never constrains the bound. With a uniform matrix this is
  // exactly the legacy T_global + L.
  double bound = kInf;
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    const EventQueue& q = engines_[s]->queue();
    if (!q.empty()) bound = std::min(bound, q.next_time() + rowmin_[s]);
  }
  return bound;
}

std::int64_t ShardedEngine::run_all_windows() {
  const std::size_t n = engines_.size();
  if (n == 1) {
    // Serial degenerate case: no windows, no barriers — the exact
    // pre-sharding run_all() path (and its exact event order).
    if (drain_) drain_(0);
    return engines_[0]->queue().run_all();
  }
  std::vector<std::int64_t> executed(n, 0);
  for (;;) {
    // Barrier phase 1 — merge: each shard adopts its mailboxed messages.
    // Runs on the pool too (a drain is per-shard work); the pool's
    // wait_idle() barrier orders it against both the previous window's
    // sends and the next window's execution.
    if (drain_) {
      util::parallel_for(*pool_, n, [&](std::size_t s) { drain_(s); });
    }
    // After the drain every pending message is in some queue, so an
    // infinite bound means full quiescence.
    const double bound = window_bound();
    if (bound == kInf) break;
    // Barrier phase 2 — window: every event strictly before the bound is
    // safe; run_before leaves each shard's clock on the window edge.
    util::parallel_for(*pool_, n, [&](std::size_t s) {
      executed[s] += engines_[s]->run_before(bound);
    });
  }
  // Quiescent: park every clock on the fleet-wide last-fired time. The
  // loop leaves each clock on its final window edge, which depends on
  // the window sequence (and hence on S); the quiesce time depends only
  // on the executed events — and it is exactly where the serial
  // degenerate case's run_all() leaves the one clock, so settle-then-
  // read-clock behaves identically at any shard count.
  const double q = quiesce_time();
  for (auto& e : engines_) e->queue().reset_clock(q);
  std::int64_t total = 0;
  for (const std::int64_t e : executed) total += e;
  return total;
}

std::int64_t ShardedEngine::run_until_windows(double t) {
  const std::size_t n = engines_.size();
  if (n == 1) {
    if (drain_) drain_(0);
    return engines_[0]->run_before(t);
  }
  std::vector<std::int64_t> executed(n, 0);
  for (;;) {
    if (drain_) {
      util::parallel_for(*pool_, n, [&](std::size_t s) { drain_(s); });
    }
    const double bound = std::min(window_bound(), t);
    // Nothing left before t (mailboxes drained above, so this is
    // global): align every clock at exactly t and stop. run_before(t)
    // executes nothing here — it only advances idle clocks.
    bool pending_before_t = false;
    for (std::size_t s = 0; s < n; ++s) {
      const EventQueue& q = engines_[s]->queue();
      if (!q.empty() && q.next_time() < t) pending_before_t = true;
    }
    if (!pending_before_t) {
      for (std::size_t s = 0; s < n; ++s) engines_[s]->run_before(t);
      break;
    }
    util::parallel_for(*pool_, n, [&](std::size_t s) {
      executed[s] += engines_[s]->run_before(bound);
    });
  }
  std::int64_t total = 0;
  for (const std::int64_t e : executed) total += e;
  return total;
}

}  // namespace lesslog::sim
