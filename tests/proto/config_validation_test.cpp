// Construction-time validation of NetworkConfig, ClientConfig, and
// PeerConfig: every rejected field gets its own test, plus proof that
// constructors call validate() (a misconfigured network/client/peer
// cannot be built).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "lesslog/proto/client.hpp"
#include "lesslog/proto/network.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(NetworkConfigValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(NetworkConfig{}.validate());
}

TEST(NetworkConfigValidation, RejectsNegativeBaseLatency) {
  NetworkConfig cfg;
  cfg.base_latency = -0.001;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NetworkConfigValidation, RejectsNanBaseLatency) {
  NetworkConfig cfg;
  cfg.base_latency = kNan;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NetworkConfigValidation, RejectsNegativeJitter) {
  NetworkConfig cfg;
  cfg.jitter = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NetworkConfigValidation, RejectsDropProbabilityAboveOne) {
  NetworkConfig cfg;
  cfg.drop_probability = 1.001;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NetworkConfigValidation, RejectsNegativeDropProbability) {
  NetworkConfig cfg;
  cfg.drop_probability = -0.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NetworkConfigValidation, RejectsNanDropProbability) {
  NetworkConfig cfg;
  cfg.drop_probability = kNan;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NetworkConfigValidation, BoundaryValuesAreAccepted) {
  NetworkConfig cfg;
  cfg.base_latency = 0.0;
  cfg.jitter = 0.0;
  cfg.drop_probability = 1.0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(NetworkConfigValidation, ConstructorRejectsBadConfig) {
  sim::Engine engine(1);
  NetworkConfig cfg;
  cfg.drop_probability = 2.0;
  EXPECT_THROW(Network(engine, cfg), std::invalid_argument);
}

TEST(ClientConfigValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(ClientConfig{}.validate());
}

TEST(ClientConfigValidation, RejectsZeroTimeout) {
  ClientConfig cfg;
  cfg.timeout = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClientConfigValidation, RejectsNegativeTimeout) {
  ClientConfig cfg;
  cfg.timeout = -0.25;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClientConfigValidation, RejectsNanTimeout) {
  ClientConfig cfg;
  cfg.timeout = kNan;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClientConfigValidation, RejectsNegativeMaxRetries) {
  ClientConfig cfg;
  cfg.max_retries = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClientConfigValidation, ZeroRetriesIsValid) {
  ClientConfig cfg;
  cfg.max_retries = 0;
  EXPECT_NO_THROW(cfg.validate());
}

// -- ClientConfig: the adaptive reliability-layer knobs -------------------

TEST(ClientConfigValidation, RejectsHedgePercentileBelowHalf) {
  ClientConfig cfg;
  cfg.hedge_percentile = 0.3;  // hedging below the median doubles load
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClientConfigValidation, RejectsHedgePercentileAtOne) {
  ClientConfig cfg;
  cfg.hedge_percentile = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClientConfigValidation, RejectsNanHedgePercentile) {
  ClientConfig cfg;
  cfg.hedge_percentile = kNan;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClientConfigValidation, HedgePercentileOffOrInRangeIsValid) {
  for (const double p : {0.0, 0.5, 0.95, 0.999}) {
    ClientConfig cfg;
    cfg.hedge_percentile = p;
    EXPECT_NO_THROW(cfg.validate()) << p;
  }
}

TEST(ClientConfigValidation, ConstructorRejectsBadConfig) {
  sim::Engine engine(1);
  Network net(engine, {});
  Peer peer(core::Pid{0}, 0, util::StatusWord(4, 1), net);
  ClientConfig cfg;
  cfg.timeout = -1.0;
  EXPECT_THROW(Client(peer, net, cfg), std::invalid_argument);
}

TEST(ClientConfigValidation, ConstructorRejectsBadAdaptiveKnobs) {
  sim::Engine engine(1);
  Network net(engine, {});
  Peer peer(core::Pid{0}, 0, util::StatusWord(4, 1), net);
  ClientConfig cfg;
  cfg.adaptive = true;
  cfg.hedge_percentile = 0.3;
  EXPECT_THROW(Client(peer, net, cfg), std::invalid_argument);
}

// -- PeerConfig: the busy-shedding budget ---------------------------------

TEST(PeerConfigValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(PeerConfig{}.validate());
}

TEST(PeerConfigValidation, RejectsNegativeBusyBudget) {
  PeerConfig cfg;
  cfg.busy_budget = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PeerConfigValidation, RejectsNegativeBusyRefill) {
  PeerConfig cfg;
  cfg.busy_refill = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PeerConfigValidation, RejectsNanBusyRefill) {
  PeerConfig cfg;
  cfg.busy_refill = kNan;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PeerConfigValidation, RejectsBudgetThatNeverRefills) {
  PeerConfig cfg;
  cfg.busy_budget = 4;
  cfg.busy_refill = 0.0;  // a bucket that never refills sheds forever
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PeerConfigValidation, BusyKnobsBoundaryValuesAreAccepted) {
  PeerConfig off;  // both zero: shedding disabled, the default
  off.busy_budget = 0;
  off.busy_refill = 0.0;
  EXPECT_NO_THROW(off.validate());
  PeerConfig slow;  // tiny but positive refill is legal
  slow.busy_budget = 1;
  slow.busy_refill = 0.001;
  EXPECT_NO_THROW(slow.validate());
}

TEST(PeerConfigValidation, ConstructorRejectsBadConfig) {
  sim::Engine engine(1);
  Network net(engine, {});
  PeerConfig cfg;
  cfg.busy_budget = 2;  // positive budget, zero refill
  EXPECT_THROW(
      Peer(core::Pid{0}, 0, util::StatusWord(4, 1), net, cfg),
      std::invalid_argument);
}

// -- ShardedSwarm: the adaptive-lookahead schedulability rejection --------

ShardedSwarm::Config sharded_base() {
  ShardedSwarm::Config cfg;
  cfg.m = 8;
  cfg.nodes = 64;
  cfg.shards = 4;
  return cfg;
}

TEST(ShardedSwarmValidation, RejectsShardsBeyondTheIdSpace) {
  ShardedSwarm::Config cfg = sharded_base();
  cfg.m = 3;
  cfg.nodes = 8;
  cfg.shards = 9;  // 2^3 == 8 < 9
  EXPECT_THROW(ShardedSwarm{cfg}, std::invalid_argument);
}

TEST(ShardedSwarmValidation, RejectsZeroFloorAndNamesTheRequirement) {
  // base_latency == 0, no geography: every pairwise cross-shard latency
  // lower bound is zero, so no conservative window exists. The message
  // must say which knob to turn, not just "invalid".
  ShardedSwarm::Config cfg = sharded_base();
  cfg.net.base_latency = 0.0;
  try {
    ShardedSwarm swarm(cfg);
    FAIL() << "zero-floor multi-shard config must not construct";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pairwise cross-shard latency floor"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("adaptive lookahead"), std::string::npos) << what;
    EXPECT_NE(what.find("base_latency"), std::string::npos) << what;
  }
}

TEST(ShardedSwarmValidation, ZeroBaseConstructsWithDisjointGeography) {
  // The relaxation the adaptive per-pair lookahead buys: base_latency
  // may be zero when clustered geography under the range map gives every
  // shard its own region, because the pairwise distance floors are then
  // strictly positive and become the windows.
  ShardedSwarm::Config cfg = sharded_base();
  cfg.net.base_latency = 0.0;
  cfg.geo = Geography{.seed = 5, .clusters = 4};
  ASSERT_NO_THROW(ShardedSwarm{cfg});
  ShardedSwarm swarm(cfg);
  for (std::size_t i = 0; i < swarm.shards(); ++i) {
    for (std::size_t j = 0; j < swarm.shards(); ++j) {
      if (i == j) continue;
      EXPECT_GT(swarm.pair_lookahead(i, j), 0.0) << i << "," << j;
    }
  }
}

TEST(ShardedSwarmValidation, ZeroBaseStillRejectedUnderTheSubtreeMap) {
  // The subtree map interleaves the ID space, so clustered geography
  // gives shard regions that overlap everywhere: the floor collapses to
  // base_latency, and zero stays genuinely unschedulable.
  ShardedSwarm::Config cfg = sharded_base();
  cfg.net.base_latency = 0.0;
  cfg.shard_map = ShardMap::Kind::kSubtree;
  cfg.geo = Geography{.seed = 5, .clusters = 4};
  EXPECT_THROW(ShardedSwarm{cfg}, std::invalid_argument);
}

TEST(ShardedSwarmValidation, SingleShardNeedsNoFloor) {
  ShardedSwarm::Config cfg = sharded_base();
  cfg.shards = 1;
  cfg.net.base_latency = 0.0;
  EXPECT_NO_THROW(ShardedSwarm{cfg});
}

}  // namespace
}  // namespace lesslog::proto
