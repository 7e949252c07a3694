// Cross-shard determinism: the sharded swarm is a pure function of
// (seed, shard count). Three pinned properties:
//   1. S = 1 gives the answers the retired serial swarm gave — same
//      latencies, counters, and metric snapshot, pinned as literals
//      recorded from it;
//   2. repeated runs at the same S > 1 agree exactly, whatever the
//      thread interleaving (run under the tsan preset too);
//   3. with jitter = 0 and no drops the workload outcome is
//      S-independent — the conservative windows reorder execution but
//      not results.
#include <gtest/gtest.h>

#include <vector>

#include "fnv_digest.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto {
namespace {

using test::digest_of;

constexpr std::uint32_t kNodes = 64;
constexpr int kFiles = 32;
constexpr int kGets = 128;

ShardedSwarm::Config sharded_config(std::size_t shards, bool deterministic_net) {
  ShardedSwarm::Config cfg;
  cfg.m = 8;
  cfg.b = 1;
  cfg.nodes = kNodes;
  cfg.seed = 7;
  cfg.shards = shards;
  if (deterministic_net) {
    cfg.net.jitter = 0.0;
    cfg.net.drop_probability = 0.0;
  }
  return cfg;
}

/// The bench-style workload: build a catalog, settle, then a burst of
/// GETs from scattered issuers.
void run_workload(ShardedSwarm& swarm) {
  std::vector<core::FileId> files;
  files.reserve(kFiles);
  for (int i = 0; i < kFiles; ++i) {
    files.push_back(swarm.insert_named(
        1000 + static_cast<std::uint64_t>(i),
        core::Pid{static_cast<std::uint32_t>(i) % kNodes}));
  }
  swarm.settle();
  for (int r = 0; r < kGets; ++r) {
    const core::FileId f = files[static_cast<std::size_t>(r) % kFiles];
    const core::Pid at{static_cast<std::uint32_t>(r * 7) % kNodes};
    swarm.get(f, swarm.peer(at).target_of(f), at);
  }
  swarm.settle();
}

struct Outcome {
  std::vector<double> latencies;
  std::int64_t faults = 0;
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t undeliverable = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  bool operator==(const Outcome& o) const {
    return latencies == o.latencies && faults == o.faults &&
           sent == o.sent && delivered == o.delivered &&
           undeliverable == o.undeliverable && counters == o.counters;
  }
};

Outcome outcome_of(ShardedSwarm& swarm) {
  Outcome out;
  out.latencies = swarm.all_latencies();
  out.faults = swarm.total_faults();
  out.sent = swarm.messages_sent();
  out.delivered = swarm.delivered();
  out.undeliverable = swarm.undeliverable();
  out.counters = swarm.metrics_snapshot().counters;
  // The shard-boundary split is a property of the deployment (S, map),
  // not of the workload: S = 1 counts nothing, S > 1 splits the same
  // sends differently. Every other counter must still match across S.
  std::erase_if(out.counters, [](const auto& kv) {
    return kv.first == "net.cross_shard_msgs" ||
           kv.first == "net.intra_shard_msgs";
  });
  return out;
}

TEST(ShardedDeterminism, SingleShardMatchesSerialSwarmExactly) {
  ShardedSwarm swarm(sharded_config(1, /*deterministic_net=*/false));
  run_workload(swarm);

  // Exact double equality: same seed, same RNG stream, same event order
  // as the serial swarm these literals were recorded from.
  EXPECT_EQ(swarm.all_latencies().size(), 128U);
  EXPECT_EQ(digest_of(swarm.all_latencies()), 0x3b0a53c31b889b02ULL);
  EXPECT_EQ(swarm.total_faults(), 0);
  EXPECT_EQ(swarm.messages_sent(), 440);
  EXPECT_EQ(swarm.delivered(), 440);
  EXPECT_EQ(swarm.bytes_sent(), 18920);
  const obs::Snapshot snap = swarm.metrics_snapshot(1.0);
  EXPECT_EQ(digest_of(snap.counters), 0xd0fe3635eb0e8baeULL);
  EXPECT_EQ(digest_of(snap.gauges), 0x035a687ef007f3f3ULL);
}

TEST(ShardedDeterminism, RepeatedMultiShardRunsAgreeExactly) {
  ShardedSwarm first(sharded_config(4, /*deterministic_net=*/false));
  run_workload(first);
  ShardedSwarm second(sharded_config(4, /*deterministic_net=*/false));
  run_workload(second);
  EXPECT_TRUE(outcome_of(first) == outcome_of(second));
}

TEST(ShardedDeterminism, OutcomeIsShardCountIndependentWithoutJitter) {
  // Zero jitter + zero drops: the GET path draws no randomness and no
  // client timeout can fire (max path latency << timeout), so not just
  // the outcome but every latency must match bit-for-bit across S.
  ShardedSwarm s1(sharded_config(1, /*deterministic_net=*/true));
  run_workload(s1);
  const Outcome base = outcome_of(s1);
  EXPECT_GT(base.latencies.size(), 0u);
  EXPECT_EQ(base.faults, 0);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    ShardedSwarm sn(sharded_config(shards, /*deterministic_net=*/true));
    run_workload(sn);
    EXPECT_TRUE(outcome_of(sn) == base) << "S = " << shards;
  }
}

TEST(ShardedDeterminism, CrashRecoveryMatchesSerialAtOneShard) {
  ShardedSwarm::Config cfg = sharded_config(1, /*deterministic_net=*/false);
  cfg.seed = 21;
  ShardedSwarm swarm(cfg);
  std::vector<core::FileId> files;
  for (int i = 0; i < kFiles; ++i) {
    files.push_back(swarm.insert_named(
        2000 + static_cast<std::uint64_t>(i),
        core::Pid{static_cast<std::uint32_t>(i) % kNodes}));
  }
  swarm.settle();
  swarm.crash(core::Pid{5});
  swarm.settle();
  swarm.restart(core::Pid{5});
  swarm.settle();
  swarm.depart(core::Pid{11});
  swarm.settle();
  for (int r = 0; r < kGets; ++r) {
    const core::FileId f = files[static_cast<std::size_t>(r) % kFiles];
    const core::Pid at{static_cast<std::uint32_t>(r * 3 + 1) % kNodes};
    if (at.value() == 11) continue;  // departed
    swarm.get(f, swarm.peer(at).target_of(f), at);
  }
  swarm.settle();

  // Literals recorded from the serial swarm on the same scenario.
  EXPECT_EQ(swarm.all_latencies().size(), 126U);
  EXPECT_EQ(digest_of(swarm.all_latencies()), 0xbc8483337611514bULL);
  EXPECT_EQ(swarm.total_faults(), 0);
  EXPECT_EQ(swarm.messages_sent(), 656);
  EXPECT_EQ(swarm.undeliverable(), 12);
}

TEST(ShardedDeterminism, CrashRecoveryRepeatsExactlyAtTwoShards) {
  const auto run_once = [] {
    ShardedSwarm::Config cfg = sharded_config(2, /*deterministic_net=*/false);
    cfg.seed = 21;
    ShardedSwarm swarm(cfg);
    std::vector<core::FileId> files;
    for (int i = 0; i < kFiles; ++i) {
      files.push_back(swarm.insert_named(
          2000 + static_cast<std::uint64_t>(i),
          core::Pid{static_cast<std::uint32_t>(i) % kNodes}));
    }
    swarm.settle();
    swarm.crash(core::Pid{200 % kNodes});  // crosses the shard boundary map
    swarm.settle();
    swarm.restart(core::Pid{200 % kNodes});
    swarm.settle();
    for (int r = 0; r < kGets; ++r) {
      const core::FileId f = files[static_cast<std::size_t>(r) % kFiles];
      const core::Pid at{static_cast<std::uint32_t>(r * 3) % kNodes};
      swarm.get(f, swarm.peer(at).target_of(f), at);
    }
    swarm.settle();
    return outcome_of(swarm);
  };
  // Two full runs, fresh thread pools each: identical outcomes prove the
  // barrier protocol, not scheduling luck, fixes the event order.
  EXPECT_TRUE(run_once() == run_once());
}

}  // namespace
}  // namespace lesslog::proto
