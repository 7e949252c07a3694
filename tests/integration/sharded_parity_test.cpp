// Feature parity: ShardedSwarm's replicate() helper, closed-loop
// auto-replication controller, and metrics sampling. Pinned properties:
//   1. at S = 1 each of the three gives the answers the retired serial
//      swarm gave (same RNG stream, same event order, same sampled
//      series), pinned as literals recorded from it;
//   2. at S ∈ {2, 4, 8} a run with the controller and sampler enabled is
//      bit-reproducible across repeated runs (fresh thread pools).
#include <gtest/gtest.h>

#include <vector>

#include "fnv_digest.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto {
namespace {

using test::digest_of;

constexpr int kM = 8;
constexpr std::uint32_t kNodes = 64;

ShardedSwarm::Config sharded_cfg(std::uint64_t seed, std::size_t shards) {
  ShardedSwarm::Config cfg;
  cfg.m = kM;
  cfg.b = 1;
  cfg.nodes = kNodes;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

TEST(ShardedParity, ReplicateMatchesSerialAtOneShard) {
  // replicate() draws placement randomness from the overloaded holder's
  // home engine; at S = 1 that is the one engine's stream, so the chosen
  // stand-ins must be the serial swarm's, replica chain and all.
  ShardedSwarm swarm(sharded_cfg(13, 1));
  std::vector<std::uint32_t> placed;
  const core::FileId f = swarm.insert_named(0x507F11E, core::Pid{1});
  const core::Pid target = swarm.peer(core::Pid{1}).target_of(f);
  swarm.settle();
  std::vector<std::uint32_t> copies{target.value()};
  for (int step = 0; step < 5; ++step) {
    const auto r = swarm.replicate(
        f, target, core::Pid{copies.back()}, [&copies](core::Pid p) {
          for (const std::uint32_t c : copies) {
            if (c == p.value()) return true;
          }
          return false;
        });
    swarm.settle();
    if (!r.has_value()) break;
    copies.push_back(r->value());
    placed.push_back(r->value());
  }
  EXPECT_EQ(target.value(), 11U);
  EXPECT_EQ(placed, (std::vector<std::uint32_t>{9u, 13u, 5u, 21u, 53u}));
  EXPECT_EQ(swarm.messages_sent(), 9);
}

TEST(ShardedParity, ControllerMatchesSerialAtOneShard) {
  // Saturates one ψ target with direct GETs, then lets the closed loop
  // run three windows. Deterministic load (no engine-RNG draws), so the
  // controller sees the serial swarm's served counters.
  ShardedSwarm swarm(sharded_cfg(29, 1));
  const core::FileId f = swarm.insert_named(0xB007, core::Pid{0});
  const core::Pid target = swarm.peer(core::Pid{0}).target_of(f);
  swarm.settle();
  for (int i = 0; i < 300; ++i) {
    swarm.get(f, target, core::Pid{static_cast<std::uint32_t>(i) % kNodes});
  }
  swarm.settle();
  swarm.enable_auto_replication(/*capacity=*/50.0, /*window=*/1.0,
                                /*stop_at=*/swarm.engine(0).now() + 3.5);
  swarm.engine(0).run_until(swarm.engine(0).now() + 4.0);
  swarm.settle();

  // Literals recorded from the serial swarm on the same scenario.
  EXPECT_EQ(swarm.auto_replicas(), 2);
  EXPECT_EQ(swarm.auto_removals(), 0);
  EXPECT_EQ(swarm.messages_sent(), 590);
  EXPECT_EQ(swarm.all_latencies().size(), 300U);
  EXPECT_EQ(digest_of(swarm.all_latencies()), 0xcdacccaebcd678f6ULL);
}

TEST(ShardedParity, SampledSeriesMatchesSerialAtOneShard) {
  ShardedSwarm swarm(sharded_cfg(31, 1));
  const core::FileId f = swarm.insert_named(0x5A17, core::Pid{2});
  const core::Pid target = swarm.peer(core::Pid{2}).target_of(f);
  swarm.settle();
  swarm.enable_metrics_sampling(/*interval=*/0.25, /*stop_at=*/2.0);
  for (int i = 0; i < 64; ++i) {
    swarm.get(f, target,
              core::Pid{static_cast<std::uint32_t>(i * 5) % kNodes});
  }
  swarm.settle();

  // Sample times, counters and gauges, folded sample by sample; the
  // literals were recorded from the serial swarm's series.
  const obs::TimeSeries& series = swarm.metrics_series();
  test::Digest times;
  test::Digest counters;
  test::Digest gauges;
  for (const obs::Snapshot& snap : series.samples) {
    times.mix(snap.time);
    counters.mix(digest_of(snap.counters));
    gauges.mix(digest_of(snap.gauges));
  }
  EXPECT_EQ(series.size(), 7U);
  EXPECT_EQ(times.value(), 0x0fd42ae913bd2a5dULL);
  EXPECT_EQ(counters.value(), 0x30b17afdf231297aULL);
  EXPECT_EQ(gauges.value(), 0x1d15fe39d538683dULL);
}

TEST(ShardedParity, ControllerAndSamplerRepeatExactlyAcrossShardCounts) {
  const auto run_once = [](std::size_t shards) {
    ShardedSwarm swarm(sharded_cfg(77, shards));
    const core::FileId f = swarm.insert_named(0xB007, core::Pid{0});
    const core::Pid target = swarm.peer(core::Pid{0}).target_of(f);
    swarm.settle();
    swarm.enable_metrics_sampling(/*interval=*/0.5,
                                  swarm.engine(0).now() + 4.0);
    for (int i = 0; i < 300; ++i) {
      swarm.get(f, target,
                core::Pid{static_cast<std::uint32_t>(i) % kNodes});
    }
    swarm.settle();
    swarm.enable_auto_replication(/*capacity=*/50.0, /*window=*/1.0,
                                  swarm.engine(0).now() + 3.5);
    swarm.run_until(swarm.engine(0).now() + 4.0);
    swarm.settle();

    struct Fingerprint {
      std::int64_t replicas;
      std::int64_t removals;
      std::int64_t sent;
      std::vector<double> latencies;
      std::vector<std::pair<std::string, std::uint64_t>> counters;
      bool operator==(const Fingerprint&) const = default;
    };
    Fingerprint fp;
    fp.replicas = swarm.auto_replicas();
    fp.removals = swarm.auto_removals();
    fp.sent = swarm.messages_sent();
    fp.latencies = swarm.all_latencies();
    fp.counters = swarm.metrics_snapshot().counters;
    return fp;
  };

  for (const std::size_t shards :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    EXPECT_TRUE(run_once(shards) == run_once(shards)) << "S = " << shards;
  }
}

}  // namespace
}  // namespace lesslog::proto
