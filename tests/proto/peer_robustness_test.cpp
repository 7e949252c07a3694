// Adversarial/robustness behaviour of the peer actor: forged or stale
// messages must degrade gracefully, never loop or crash.
#include <gtest/gtest.h>

#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/proto/trace.hpp"
#include "lesslog/util/hashing.hpp"

namespace lesslog::proto {
namespace {

using core::FileId;
using core::Pid;

ShardedSwarm::Config cfg16() {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.net.base_latency = 0.005;
  cfg.net.jitter = 0.0;
  return cfg;
}

TEST(PeerRobustness, HopCountFenceStopsForgedLoops) {
  ShardedSwarm swarm(cfg16());
  Trace trace(swarm);
  // Forge a GET that claims to have travelled far too long already; the
  // receiving peer must answer MISS instead of forwarding further.
  Message forged;
  forged.request_id = 0x1234;
  forged.type = MsgType::kGetRequest;
  forged.from = Pid{9};
  forged.to = Pid{8};
  forged.requester = Pid{9};
  forged.subject = Pid{4};
  forged.file = FileId{0x404};
  forged.hop_count = 200;
  swarm.network(0).send(forged);
  swarm.settle();
  EXPECT_EQ(trace.count(MsgType::kGetRequest), 1u);  // not forwarded
  ASSERT_EQ(trace.count(MsgType::kGetReply), 1u);
  EXPECT_FALSE(trace.of_type(MsgType::kGetReply)[0].message.ok);
}

TEST(PeerRobustness, StaleStatusWordRoutesHealThroughRetries) {
  // A peer that never learns about a departure keeps forwarding to the
  // dead node; the datagram is undeliverable, the client times out,
  // retries, and (after the announcement finally lands) succeeds.
  ShardedSwarm::Config cfg = cfg16();
  cfg.client.timeout = 0.05;
  cfg.client.max_retries = 4;
  ShardedSwarm swarm(cfg);
  std::uint64_t key = 0;
  while (util::psi_u64(key, 4) != 4) ++key;
  const FileId f = swarm.insert_named(key, Pid{1});
  swarm.settle();

  // Silence P(0) without telling anyone (detach only): P(8)'s route runs
  // through it and now blackholes.
  swarm.network(0).detach(Pid{0});
  GetResult first;
  swarm.get(f, Pid{4}, Pid{8}, [&](const GetResult& r) { first = r; });
  swarm.settle();
  // All retries went into the same dead hop: the request faults...
  EXPECT_FALSE(first.ok);
  EXPECT_GT(swarm.undeliverable(), 0);

  // ...until the failure is finally announced; then routing skips P(0).
  for (std::uint32_t q = 0; q < 16; ++q) {
    if (q == 0) continue;
    Message announce;
    announce.type = MsgType::kStatusAnnounce;
    announce.from = Pid{0};
    announce.to = Pid{q};
    announce.subject = Pid{0};
    announce.ok = false;
    swarm.network(0).send(announce);
  }
  swarm.settle();
  GetResult second;
  swarm.get(f, Pid{4}, Pid{8}, [&](const GetResult& r) { second = r; });
  swarm.settle();
  EXPECT_TRUE(second.ok);
}

TEST(PeerRobustness, UnknownFilePushAckIsIgnored) {
  ShardedSwarm swarm(cfg16());
  Message stray;
  stray.request_id = 0xFFFF'0001;
  stray.type = MsgType::kFilePushAck;
  stray.from = Pid{3};
  stray.to = Pid{7};
  swarm.network(0).send(stray);
  swarm.settle();
  SUCCEED();  // nothing to assert beyond "no crash, no effect"
}

TEST(PeerRobustness, DuplicateStatusAnnouncesAreIdempotent) {
  ShardedSwarm swarm(cfg16());
  for (int i = 0; i < 5; ++i) {
    Message announce;
    announce.type = MsgType::kStatusAnnounce;
    announce.from = Pid{5};
    announce.to = Pid{2};
    announce.subject = Pid{5};
    announce.ok = false;
    swarm.network(0).send(announce);
  }
  swarm.settle();
  EXPECT_FALSE(swarm.peer(Pid{2}).status().is_live(5));
  // And flipping back works regardless of how many deaths were heard.
  Message revive;
  revive.type = MsgType::kStatusAnnounce;
  revive.from = Pid{5};
  revive.to = Pid{2};
  revive.subject = Pid{5};
  revive.ok = true;
  swarm.network(0).send(revive);
  swarm.settle();
  EXPECT_TRUE(swarm.peer(Pid{2}).status().is_live(5));
}

TEST(PeerRobustness, GetForMissingFileTerminatesQuickly) {
  ShardedSwarm swarm(cfg16());
  Trace trace(swarm);
  GetResult result;
  swarm.get(FileId{0xAB5E27}, Pid{11}, Pid{2},
            [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_FALSE(result.ok);
  // The walk is bounded by the tree depth: few GET datagrams, one MISS.
  EXPECT_LE(trace.count(MsgType::kGetRequest), 5u);
}

}  // namespace
}  // namespace lesslog::proto
