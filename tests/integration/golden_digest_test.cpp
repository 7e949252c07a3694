// Golden outcome digests: 64-bit fingerprints of fixed swarm runs, pinned
// as literal constants.
//
// The determinism tests elsewhere compare two runs of one build against
// each other, so a change that moves behaviour moves both sides and still
// passes. These pins do not move with the code. Each run yields two
// digests:
//   * outcome — every completed GET's latency bits (PID order), the
//     datagram count, and every peer's served counter;
//   * counters — every metric-snapshot counter, name and value (checked
//     only when the obs hot path is compiled in).
//
// A storage-only change (member layout, lazily allocated blocks, ring
// sizes) must leave every pin untouched. A deliberate behaviour change
// re-records them and says why in its change log.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fnv_digest.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/bits.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::proto {
namespace {

using test::Digest;

struct Digests {
  std::uint64_t outcome = 0;
  std::uint64_t counters = 0;
};

Digests digest(ShardedSwarm& swarm) {
  Digest outcome;
  const std::vector<double> latencies = swarm.all_latencies();
  outcome.mix(static_cast<std::uint64_t>(latencies.size()));
  for (const double l : latencies) outcome.mix(l);
  outcome.mix(static_cast<std::uint64_t>(swarm.messages_sent()));
  const std::uint32_t slots = util::space_size(swarm.width());
  for (std::uint32_t p = 0; p < slots; ++p) {
    outcome.mix(
        static_cast<std::uint64_t>(swarm.peer(core::Pid{p}).served()));
  }
  return Digests{outcome.value(),
                 test::digest_of(swarm.metrics_snapshot().counters)};
}

void expect_pinned(const Digests& got, const Digests& pinned) {
  EXPECT_EQ(got.outcome, pinned.outcome)
      << "outcome digest moved: 0x" << std::hex << got.outcome;
  EXPECT_EQ(got.counters, pinned.counters)
      << "counter digest moved: 0x" << std::hex << got.counters;
}

/// Default-config swarm (10 +- 5 ms links, fixed-timer client, no
/// shedding), every PID live; a 64-file catalog at drawn roots, then one
/// GET per peer for a drawn file, run to quiescence.
Digests run_default(std::size_t shards) {
  ShardedSwarm::Config cfg;
  cfg.m = 12;
  cfg.nodes = util::space_size(cfg.m);
  cfg.seed = 12;
  cfg.shards = shards;
  ShardedSwarm swarm(cfg);
  util::Rng rng(0x601DE11ULL);
  std::vector<std::pair<core::FileId, core::Pid>> files;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const core::FileId f{0xD16E0000ULL + i};
    const core::Pid root{static_cast<std::uint32_t>(rng.bounded(cfg.nodes))};
    files.emplace_back(f, root);
    swarm.insert(f, root, core::Pid{0});
  }
  swarm.settle();
  for (std::uint32_t p = 0; p < cfg.nodes; ++p) {
    const auto& [f, root] = files[rng.bounded(files.size())];
    swarm.get(f, root, core::Pid{p});
  }
  swarm.settle();
  EXPECT_EQ(swarm.all_latencies().size(), std::size_t{cfg.nodes});
  EXPECT_EQ(swarm.total_faults(), 0);
  return digest(swarm);
}

TEST(GoldenDigest, DefaultSwarmOneShard) {
  expect_pinned(run_default(1),
                Digests{0x2842762db901bdf3ULL, 0x9db6eb4e3343a3a0ULL});
}

TEST(GoldenDigest, DefaultSwarmFourShards) {
  expect_pinned(run_default(4),
                Digests{0x59e05084ca98de0bULL, 0x69bf401a8a50c68eULL});
}

TEST(GoldenDigest, ReliabilityLossCrashAndReplication) {
  // Every opt-in path at once: adaptive timers and hedged GETs on the
  // client, a service budget on the peers, 5% loss, the closed-loop
  // replication controller, and one announced crash with a restart
  // (crash recovery and reclaim pushes). Both lazily allocated blocks —
  // the client's reliability state and the peer's shed/push state — are
  // created and, on the restarted peer, dropped.
  ShardedSwarm::Config cfg;
  cfg.m = 8;
  cfg.b = 1;
  cfg.nodes = util::space_size(cfg.m);
  cfg.seed = 8;
  cfg.net.drop_probability = 0.05;
  cfg.client.adaptive = true;
  cfg.client.hedge_percentile = 0.9;
  cfg.client.seed = 8;
  cfg.peer.busy_budget = 4;
  cfg.peer.busy_refill = 100.0;
  ShardedSwarm swarm(cfg);

  std::vector<core::FileId> files;
  for (std::uint64_t k = 0; k < 16; ++k) {
    files.push_back(swarm.insert_named(0xB0B0ULL + k, core::Pid{3}));
  }
  swarm.settle();
  swarm.enable_auto_replication(/*capacity=*/40.0, /*window=*/0.5,
                                /*stop_at=*/6.0,
                                /*removal_threshold=*/2.0);

  util::Rng rng(0x4E11AB1EULL);
  // The hot file's root holds its inserted copy: crashing it forces
  // crash-recovery pushes, and its restart reclaims the copy.
  const core::Pid victim = swarm.peer(core::Pid{0}).target_of(files[0]);
  ASSERT_NE(victim.value(), 0U);  // PID 0 stands in for dead issuers
  const double start = swarm.quiesce_time();
  for (int tick = 1; tick <= 60; ++tick) {
    const double t = start + 0.1 * tick;
    if (tick == 15) swarm.crash(victim);
    if (tick == 35) swarm.restart(victim);
    // A hot file (three GETs in four) and a uniform tail, from live
    // issuers only.
    for (int i = 0; i < 40; ++i) {
      const core::FileId f =
          rng.bounded(4) != 0 ? files[0] : files[rng.bounded(files.size())];
      core::Pid at{static_cast<std::uint32_t>(rng.bounded(cfg.nodes))};
      if (!swarm.status().is_live(at.value())) at = core::Pid{0};
      swarm.get(f, swarm.peer(at).target_of(f), at);
    }
    swarm.run_until(t);
  }
  swarm.settle();

  // The run must actually exercise what the pins claim to cover, and the
  // ledger must reproduce, field by field, the values recorded when each
  // of them was a per-client and per-peer int.
  const ReliabilityLedger ledger = swarm.reliability_ledger();
  EXPECT_EQ(ledger.issued, ledger.ok + ledger.faults);
  EXPECT_EQ(ledger.issued, 2400);
  EXPECT_EQ(ledger.ok, 2385);
  EXPECT_EQ(ledger.faults, 15);
  EXPECT_EQ(ledger.rtt_samples, 1736);
  EXPECT_EQ(ledger.hedges_launched, 282);
  EXPECT_EQ(ledger.hedge_won, 187);
  EXPECT_EQ(ledger.hedge_cancelled, 95);
  EXPECT_EQ(ledger.busy_received, 253);
  EXPECT_EQ(ledger.busy_shed, 262);
  EXPECT_GT(swarm.auto_replicas(), 0);
  EXPECT_GT(swarm.dropped(), 0);
  const obs::Snapshot snap = swarm.metrics_snapshot();
  ASSERT_NE(snap.counter("peer.repair_pushes"), nullptr);
  EXPECT_GT(*snap.counter("peer.repair_pushes"), 0U);
  expect_pinned(digest(swarm),
                Digests{0xcc08f90a479a9f6fULL, 0x57ae56a3c555b3edULL});
}

}  // namespace
}  // namespace lesslog::proto
