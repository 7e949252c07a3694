// Differential tests: the message-level peer protocol must visit the same
// nodes and reach the same holders as the direct-call core algorithms.
#include "lesslog/proto/peer.hpp"

#include <gtest/gtest.h>

#include <set>

#include "lesslog/core/routing.hpp"
#include "lesslog/core/update.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::proto {
namespace {

using core::FileId;
using core::Pid;

ShardedSwarm::Config lossless(int m, int b, std::uint32_t nodes,
                       std::uint64_t seed = 1) {
  ShardedSwarm::Config cfg;
  cfg.m = m;
  cfg.b = b;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.net.base_latency = 0.001;
  cfg.net.jitter = 0.0005;
  return cfg;
}

TEST(PeerProtocol, PaperRoutingExampleMessageByMessage) {
  // P(8) -> P(0) -> P(4): the GETFILE chain of Figure 2 as real messages.
  ShardedSwarm swarm(lossless(4, 0, 16));
  const FileId f{111};
  swarm.insert(f, Pid{4}, Pid{2});
  swarm.settle();
  EXPECT_TRUE(swarm.peer(Pid{4}).store().has(f));

  GetResult result;
  swarm.get(f, Pid{4}, Pid{8}, [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.hops, 2);  // 8 -> 0 -> 4
  EXPECT_EQ(swarm.peer(Pid{0}).forwarded(), 1);
  EXPECT_EQ(swarm.peer(Pid{4}).served(), 1);
}

TEST(PeerProtocol, HopCountsMatchCoreRoutingEverywhere) {
  const int m = 6;
  ShardedSwarm swarm(lossless(m, 0, 64, 3));
  // Knock out some nodes to exercise the advanced model.
  for (const std::uint32_t dead : {5u, 9u, 33u, 60u, 61u, 62u, 63u}) {
    swarm.depart(Pid{dead});
  }
  swarm.settle();  // let the announcements spread

  const Pid target{63};  // dead target: stand-in scenario
  const FileId f{222};
  swarm.insert(f, target, Pid{0});
  swarm.settle();

  const core::LookupTree tree(m, target);
  const auto holder = core::insertion_target(tree, swarm.status());
  ASSERT_TRUE(holder.has_value());
  const core::HasCopyFn has_copy = [&](Pid p) { return p == *holder; };

  for (std::uint32_t k = 0; k < 64; ++k) {
    if (!swarm.status().is_live(k)) continue;
    GetResult result;
    swarm.get(f, target, Pid{k}, [&](const GetResult& r) { result = r; });
    swarm.settle();
    const core::RouteResult expected =
        core::route_get(tree, Pid{k}, swarm.status(), has_copy);
    ASSERT_TRUE(result.ok) << "k=" << k;
    EXPECT_EQ(result.hops, expected.hops()) << "k=" << k;
  }
}

TEST(PeerProtocol, ReplicaShortCircuitsLikeCore) {
  ShardedSwarm swarm(lossless(4, 0, 16));
  const FileId f{333};
  swarm.insert(f, Pid{4}, Pid{1});
  swarm.settle();
  // Replicate at the root: lands on P(5) per the children-list order.
  const auto placed = swarm.replicate(
      f, Pid{4}, Pid{4}, [&](Pid p) { return p == Pid{4}; });
  ASSERT_EQ(placed, Pid{5});
  swarm.settle();
  EXPECT_TRUE(swarm.peer(Pid{5}).store().has(f));

  GetResult result;
  swarm.get(f, Pid{4}, Pid{13}, [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(swarm.peer(Pid{5}).served(), 1);
  EXPECT_EQ(swarm.peer(Pid{4}).served(), 0);
}

TEST(PeerProtocol, UpdatePushReachesSameSetAsCorePropagation) {
  const int m = 5;
  ShardedSwarm swarm(lossless(m, 0, 32, 9));
  const Pid target{20};
  const FileId f{444};
  swarm.insert(f, target, Pid{3});
  swarm.settle();

  // Grow a replica chain through the protocol.
  std::set<std::uint32_t> copies{target.value()};
  util::Rng rng(4);
  for (int step = 0; step < 6; ++step) {
    std::vector<std::uint32_t> holder_list(copies.begin(), copies.end());
    const Pid from{holder_list[rng.bounded(holder_list.size())]};
    const auto placed = swarm.replicate(
        f, target, from,
        [&copies](Pid p) { return copies.contains(p.value()); });
    if (placed.has_value()) copies.insert(placed->value());
    swarm.settle();
  }

  swarm.update(f, target, /*version=*/9, Pid{7});
  swarm.settle();

  const core::LookupTree tree(m, target);
  const core::UpdateResult expected = core::propagate_update(
      tree, swarm.status(),
      [&copies](Pid p) { return copies.contains(p.value()); });
  std::set<std::uint32_t> expected_set;
  for (const Pid p : expected.updated) expected_set.insert(p.value());

  for (const std::uint32_t holder : copies) {
    const auto info = swarm.peer(Pid{holder}).store().info(f);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, expected_set.contains(holder) ? 9u : 0u)
        << "holder " << holder;
  }
  EXPECT_EQ(expected_set, copies);  // LessLog placements stay connected
}

TEST(PeerProtocol, FaultToleranceMigratesAcrossSubtrees) {
  ShardedSwarm swarm(lossless(6, 2, 64, 11));
  const Pid target{40};
  const FileId f{555};
  swarm.insert(f, target, Pid{2});
  swarm.settle();

  // Collect the 4 holders and keep only one.
  const core::LookupTree tree(6, target);
  const core::SubtreeView view(tree, 2);
  std::vector<Pid> holders = view.insertion_targets(swarm.status());
  ASSERT_EQ(holders.size(), 4u);
  for (std::size_t i = 0; i + 1 < holders.size(); ++i) {
    swarm.depart(holders[i]);
  }
  swarm.settle();

  GetResult result;
  swarm.get(f, target, Pid{1}, [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_TRUE(result.ok);
}

TEST(PeerProtocol, MissingFileFaultsAfterAllSubtrees) {
  ShardedSwarm swarm(lossless(5, 1, 32));
  GetResult result;
  swarm.get(FileId{666}, Pid{10}, Pid{4},
            [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.migrations, 2);  // tried both subtrees
  EXPECT_EQ(swarm.total_faults(), 1);
}

TEST(PeerProtocol, LossyNetworkRecoversViaRetries) {
  ShardedSwarm::Config cfg = lossless(5, 0, 32, 21);
  cfg.net.drop_probability = 0.2;
  cfg.client.timeout = 0.05;
  cfg.client.max_retries = 6;
  ShardedSwarm swarm(cfg);
  const FileId f{777};
  // Inserts may drop; retry loop in the client covers them.
  swarm.insert(f, Pid{17}, Pid{0});
  swarm.settle();

  int ok = 0;
  int issued = 0;
  for (std::uint32_t k = 0; k < 32; ++k) {
    ++issued;
    swarm.get(f, Pid{17}, Pid{k}, [&](const GetResult& r) {
      if (r.ok) ++ok;
    });
  }
  swarm.settle();
  // With 20% loss per message and 6 retries per leg, nearly everything
  // completes; the assertion leaves room for unlucky multi-hop paths.
  EXPECT_GE(ok, issued - 3);
  EXPECT_GT(swarm.dropped(), 0);
}

TEST(PeerProtocol, StatusAnnouncementsConvergePeers) {
  ShardedSwarm swarm(lossless(4, 0, 16));
  swarm.depart(Pid{5});
  swarm.settle();
  for (std::uint32_t k = 0; k < 16; ++k) {
    if (k == 5 || !swarm.status().is_live(k)) continue;
    EXPECT_FALSE(swarm.peer(Pid{k}).status().is_live(5)) << "k=" << k;
  }
  swarm.join(Pid{5});
  swarm.settle();
  for (std::uint32_t k = 0; k < 16; ++k) {
    if (!swarm.status().is_live(k)) continue;
    EXPECT_TRUE(swarm.peer(Pid{k}).status().is_live(5)) << "k=" << k;
  }
}

TEST(PeerProtocol, LatencyIsHopsTimesLinkLatency) {
  ShardedSwarm::Config cfg = lossless(4, 0, 16);
  cfg.net.base_latency = 0.01;
  cfg.net.jitter = 0.0;
  ShardedSwarm swarm(cfg);
  const FileId f{888};
  swarm.insert(f, Pid{4}, Pid{4});
  swarm.settle();
  GetResult result;
  swarm.get(f, Pid{4}, Pid{8}, [&](const GetResult& r) { result = r; });
  swarm.settle();
  // 2 forwarding hops + 1 reply = 3 messages at 10 ms each.
  EXPECT_NEAR(result.latency, 0.03, 1e-9);
}

}  // namespace
}  // namespace lesslog::proto
