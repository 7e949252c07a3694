// DeliverySink fan-out: every registered sink sees every delivered
// datagram, in delivery order, and peer lifecycle events reach on_peer.
// On a multi-shard swarm each shard's worker calls the sink for its own
// deliveries (run under the tsan preset too).
#include "lesslog/obs/sink.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/proto/trace.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::obs {
namespace {

using proto::Message;
using proto::MsgType;

struct RecordingSink final : DeliverySink {
  struct Delivered {
    double time;
    MsgType type;
    std::uint32_t from;
    std::uint32_t to;
  };
  struct PeerEvent {
    double time;
    std::uint32_t pid;
    bool live;
  };
  std::vector<Delivered> deliveries;
  std::vector<PeerEvent> peer_events;

  void on_deliver(double time, const Message& m) override {
    deliveries.push_back(
        {time, m.type, m.from.value(), m.to.value()});
  }
  void on_peer(double time, core::Pid pid, bool live) override {
    peer_events.push_back({time, pid.value(), live});
  }
};

proto::ShardedSwarm::Config config(std::uint32_t nodes = 0) {
  proto::ShardedSwarm::Config cfg;
  cfg.m = 5;
  cfg.b = 0;
  cfg.nodes = nodes == 0 ? util::space_size(5) : nodes;
  cfg.seed = 11;
  cfg.net.base_latency = 0.010;
  cfg.net.jitter = 0.005;
  return cfg;
}

void drive(proto::ShardedSwarm& swarm, int requests, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::FileId f{0xFEEDULL};
  const core::Pid target{3};
  swarm.insert(f, target, core::Pid{0});
  swarm.settle();
  for (int i = 0; i < requests; ++i) {
    const core::Pid at{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(5)))};
    swarm.get(f, target, at);
  }
  swarm.settle();
}

TEST(DeliverySinkTest, EverySinkSeesEveryDeliveryInTheSameOrder) {
  proto::ShardedSwarm swarm(config());
  RecordingSink first;
  RecordingSink second;
  swarm.add_sink(first);
  swarm.add_sink(second);
  drive(swarm, 20, 99);

  ASSERT_FALSE(first.deliveries.empty());
  ASSERT_EQ(first.deliveries.size(), second.deliveries.size());
  for (std::size_t i = 0; i < first.deliveries.size(); ++i) {
    EXPECT_EQ(first.deliveries[i].time, second.deliveries[i].time);
    EXPECT_EQ(first.deliveries[i].type, second.deliveries[i].type);
    EXPECT_EQ(first.deliveries[i].from, second.deliveries[i].from);
    EXPECT_EQ(first.deliveries[i].to, second.deliveries[i].to);
  }
  // Delivery order is simulated-time order.
  for (std::size_t i = 1; i < first.deliveries.size(); ++i) {
    EXPECT_LE(first.deliveries[i - 1].time, first.deliveries[i].time);
  }
  swarm.remove_sink(first);
  swarm.remove_sink(second);
}

TEST(DeliverySinkTest, RemovedSinkStopsRecording) {
  proto::ShardedSwarm swarm(config());
  RecordingSink removed;
  RecordingSink kept;
  swarm.add_sink(removed);
  swarm.add_sink(kept);
  drive(swarm, 10, 5);
  const std::size_t before = removed.deliveries.size();
  ASSERT_GT(before, 0u);

  swarm.remove_sink(removed);
  drive(swarm, 10, 6);
  EXPECT_EQ(removed.deliveries.size(), before);
  EXPECT_GT(kept.deliveries.size(), before);
  swarm.remove_sink(kept);
}

TEST(DeliverySinkTest, AddingTheSameSinkTwiceRecordsOnce) {
  proto::ShardedSwarm swarm(config());
  RecordingSink sink;
  RecordingSink reference;
  swarm.add_sink(sink);
  swarm.add_sink(sink);  // dedup: still registered once
  swarm.add_sink(reference);
  drive(swarm, 10, 21);
  EXPECT_EQ(sink.deliveries.size(), reference.deliveries.size());
  swarm.remove_sink(sink);
  swarm.remove_sink(reference);
}

TEST(DeliverySinkTest, PeerLifecycleEventsReachOnPeer) {
  proto::ShardedSwarm swarm(config(/*nodes=*/24));
  RecordingSink sink;
  swarm.add_sink(sink);

  const core::Pid joined = swarm.join();
  swarm.settle();
  ASSERT_EQ(sink.peer_events.size(), 1u);
  EXPECT_EQ(sink.peer_events[0].pid, joined.value());
  EXPECT_TRUE(sink.peer_events[0].live);

  swarm.depart(joined);
  swarm.settle();
  ASSERT_EQ(sink.peer_events.size(), 2u);
  EXPECT_EQ(sink.peer_events[1].pid, joined.value());
  EXPECT_FALSE(sink.peer_events[1].live);
  swarm.remove_sink(sink);
}

TEST(DeliverySinkTest, TraceAndRawSinkRecordIdenticalStreams) {
  proto::ShardedSwarm swarm(config());
  proto::Trace trace(swarm);
  RecordingSink sink;
  swarm.add_sink(sink);
  drive(swarm, 15, 77);

  ASSERT_EQ(trace.size(), sink.deliveries.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.records()[i].time, sink.deliveries[i].time);
    EXPECT_EQ(trace.records()[i].message.type, sink.deliveries[i].type);
  }
  swarm.remove_sink(sink);
}

/// Counts deliveries per shard: cell s is written only by shard s's
/// worker (a datagram is delivered on its destination's home shard), the
/// per-shard-state contract add_sink documents.
struct PerShardTally final : DeliverySink {
  const proto::ShardedSwarm* swarm;
  std::vector<std::int64_t> delivered;

  explicit PerShardTally(const proto::ShardedSwarm& s)
      : swarm(&s), delivered(s.shards(), 0) {}

  void on_deliver(double /*time*/, const Message& m) override {
    ++delivered[swarm->shard_of(m.to)];
  }
};

TEST(DeliverySinkTest, MultiShardSinkKeepsPerShardTalliesThatSumToDelivered) {
  proto::ShardedSwarm::Config cfg = config();
  cfg.shards = 4;
  proto::ShardedSwarm swarm(cfg);
  PerShardTally tally(swarm);
  swarm.add_sink(tally);
  drive(swarm, 200, 404);

  const std::int64_t total = std::accumulate(
      tally.delivered.begin(), tally.delivered.end(), std::int64_t{0});
  EXPECT_EQ(total, swarm.delivered());
  for (std::size_t s = 0; s < swarm.shards(); ++s) {
    EXPECT_EQ(tally.delivered[s], swarm.network(s).delivered())
        << "shard " << s;
    EXPECT_GT(tally.delivered[s], 0) << "shard " << s;
  }
  swarm.remove_sink(tally);
  drive(swarm, 20, 405);
  EXPECT_EQ(std::accumulate(tally.delivered.begin(), tally.delivered.end(),
                            std::int64_t{0}),
            total);
}

TEST(DeliverySinkTest, TraceRejectsAMultiShardSwarm) {
  proto::ShardedSwarm::Config cfg = config();
  cfg.shards = 2;
  proto::ShardedSwarm swarm(cfg);
  EXPECT_THROW(proto::Trace trace(swarm), std::invalid_argument);
}

}  // namespace
}  // namespace lesslog::obs
