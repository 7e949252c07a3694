// Client reliability machinery: timeouts, retry budgets, generation
// guards, and latency accounting, exercised through controlled network
// conditions.
#include "lesslog/proto/client.hpp"

#include <gtest/gtest.h>

#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto {
namespace {

using core::FileId;
using core::Pid;

TEST(Client, TotalBlackoutFaultsAfterRetryBudget) {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.net.drop_probability = 1.0;  // nothing ever arrives
  cfg.client.timeout = 0.1;
  cfg.client.max_retries = 3;
  ShardedSwarm swarm(cfg);

  GetResult result;
  bool done = false;
  // Request a file from another node so the first leg needs the network.
  swarm.get(FileId{1}, Pid{4}, Pid{8}, [&](const GetResult& r) {
    result = r;
    done = true;
  });
  swarm.settle();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.retries, 3);
  // Latency = (max_retries + 1) timeouts.
  EXPECT_NEAR(result.latency, 0.4, 1e-9);
  EXPECT_EQ(swarm.total_faults(), 1);
}

TEST(Client, AnsweredGetStillQuiescesAtItsTimeout) {
  // An answered GET frees its retry timer's handler at once, but the
  // timer's time still passes as a no-op event: the swarm goes quiet one
  // timeout after the issue, as when the timer fired into a finished
  // request.
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.client.timeout = 0.5;  // far above the round trip
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0xD00D, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  const Pid requester{target.value() == 3u ? 5u : 3u};
  const double issued = swarm.engine(0).now();
  GetResult result;
  swarm.get(f, target, requester, [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.retries, 0);
  EXPECT_LT(result.latency, 0.1);
  EXPECT_DOUBLE_EQ(swarm.quiesce_time(), issued + 0.5);
  EXPECT_EQ(swarm.metrics(0).get_timeouts->value(), 0u);
  EXPECT_TRUE(swarm.engine(0).queue().empty());
}

TEST(Client, TimedOutLegRetriesOnSchedule) {
  // Replies slower than the timeout: each leg's timer fires and retries
  // (the firing timer is never the released one), and the first leg's
  // late reply completes the request. With fixed 30 ms links the round
  // trip is 30 ms per forwarding hop plus the direct reply, so the GET
  // retries once per 50 ms timeout that expires before that reply.
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.net.base_latency = 0.03;
  cfg.net.jitter = 0.0;
  cfg.client.timeout = 0.05;
  cfg.client.max_retries = 8;
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0xFACE, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  const Pid requester{target.value() ^ 0xFu};  // m forwarding hops away
  int calls = 0;
  GetResult result;
  swarm.get(f, target, requester, [&](const GetResult& r) {
    ++calls;
    result = r;
  });
  swarm.settle();
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(result.ok);
  EXPECT_NEAR(result.latency, 0.03 * (result.hops + 1), 1e-9);
  const int expected_retries = static_cast<int>(result.latency / 0.05);
  EXPECT_GE(expected_retries, 1);
  EXPECT_EQ(result.retries, expected_retries);
  EXPECT_EQ(swarm.metrics(0).get_timeouts->value(),
            static_cast<std::uint64_t>(expected_retries));
  EXPECT_EQ(swarm.metrics(0).get_retries->value(),
            static_cast<std::uint64_t>(expected_retries));
  EXPECT_TRUE(swarm.engine(0).queue().empty());
}

TEST(Client, CallbackFiresExactlyOnce) {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.client.timeout = 0.01;  // shorter than the 10ms+ round trip
  cfg.client.max_retries = 4;
  cfg.net.base_latency = 0.02;
  cfg.net.jitter = 0.0;
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0xCAFE, Pid{0});
  swarm.settle();

  // The aggressive timeout fires retries while replies are in flight:
  // duplicate replies arrive, but the callback must run exactly once.
  int calls = 0;
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  const Pid requester{target.value() == 3u ? 5u : 3u};
  swarm.get(f, target, requester, [&](const GetResult&) { ++calls; });
  swarm.settle();
  EXPECT_EQ(calls, 1);
}

TEST(Client, LatencyRecordsOnlySuccesses) {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.client.timeout = 0.05;
  cfg.client.max_retries = 1;
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0xBEAD, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  const Pid requester{target.value() == 2u ? 6u : 2u};

  swarm.get(f, target, requester);                 // hit
  swarm.get(FileId{0x404}, Pid{9}, requester);     // miss -> fault
  swarm.settle();
  EXPECT_EQ(swarm.client(requester).latencies().size(), 1u);
  EXPECT_EQ(swarm.client(requester).faults(), 1);
  EXPECT_EQ(swarm.client(requester).requests_issued(), 2);
}

TEST(Client, InsertRetriesUntilAcked) {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.seed = 12;
  cfg.net.drop_probability = 0.5;
  cfg.client.timeout = 0.05;
  cfg.client.max_retries = 12;
  ShardedSwarm swarm(cfg);

  bool ok = false;
  swarm.client(Pid{2}).insert(FileId{0xAB}, Pid{7}, Pid{7},
                              [&ok](bool acked) { ok = acked; });
  swarm.settle();
  // (1-0.5^2)^13 failing every leg is ~1e-2 per leg pair; with 13 legs the
  // chance all fail is ~2^-26 — deterministic seed makes this stable.
  EXPECT_TRUE(ok);
  EXPECT_TRUE(swarm.peer(Pid{7}).store().has(FileId{0xAB}));
}

TEST(Client, InsertBlackoutReportsFailure) {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.net.drop_probability = 1.0;
  cfg.client.timeout = 0.02;
  cfg.client.max_retries = 2;
  ShardedSwarm swarm(cfg);
  bool ok = true;
  swarm.client(Pid{2}).insert(FileId{0xAC}, Pid{7}, Pid{7},
                              [&ok](bool acked) { ok = acked; });
  swarm.settle();
  EXPECT_FALSE(ok);
}

TEST(Client, RequestIdsAreStripedPerClient) {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0x11, Pid{0});
  swarm.settle();
  // Concurrent gets from many clients: all complete despite shared wires.
  int completions = 0;
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  for (std::uint32_t k = 0; k < 16; ++k) {
    swarm.get(f, target, Pid{k},
              [&completions](const GetResult& r) {
                if (r.ok) ++completions;
              });
  }
  swarm.settle();
  EXPECT_EQ(completions, 16);
}

}  // namespace
}  // namespace lesslog::proto
