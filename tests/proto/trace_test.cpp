#include "lesslog/proto/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "lesslog/util/hashing.hpp"

namespace lesslog::proto {
namespace {

using core::FileId;
using core::Pid;

ShardedSwarm::Config traced_cfg() {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.net.base_latency = 0.01;
  cfg.net.jitter = 0.0;
  return cfg;
}

TEST(Trace, RecordsThePaperGetSequence) {
  ShardedSwarm swarm(traced_cfg());
  Trace trace(swarm);

  // Find a ψ-key targeting P(4) and fetch it from P(8): the canonical
  // P(8) -> P(0) -> P(4) walk must appear as GET records.
  std::uint64_t key = 0;
  while (util::psi_u64(key, 4) != 4) ++key;
  const FileId f = swarm.insert_named(key, Pid{2});
  swarm.settle();
  trace.clear();

  swarm.get(f, Pid{4}, Pid{8});
  swarm.settle();

  const std::vector<TraceRecord> gets = trace.of_type(MsgType::kGetRequest);
  ASSERT_EQ(gets.size(), 2u);  // 8->0 and 0->4 (entry is a local upcall)
  EXPECT_EQ(gets[0].message.from, Pid{8});
  EXPECT_EQ(gets[0].message.to, Pid{0});
  EXPECT_EQ(gets[1].message.from, Pid{0});
  EXPECT_EQ(gets[1].message.to, Pid{4});
  ASSERT_EQ(trace.count(MsgType::kGetReply), 1u);
  EXPECT_TRUE(trace.of_type(MsgType::kGetReply)[0].message.ok);
  // Timestamps ascend with the 10 ms links.
  EXPECT_LT(gets[0].time, gets[1].time);
}

TEST(Trace, CountsBroadcastFanout) {
  ShardedSwarm swarm(traced_cfg());
  Trace trace(swarm);
  swarm.depart(Pid{5});
  swarm.settle();
  // 15 surviving peers hear the status announcement.
  EXPECT_EQ(trace.count(MsgType::kStatusAnnounce), 15u);
}

TEST(Trace, RenderMentionsTypesAndNodes) {
  ShardedSwarm swarm(traced_cfg());
  Trace trace(swarm);
  const FileId f = swarm.insert_named(0x77, Pid{3});
  swarm.settle();
  const std::string text = trace.render();
  EXPECT_NE(text.find("INSERT"), std::string::npos);
  EXPECT_NE(text.find("INS_ACK"), std::string::npos);
  EXPECT_NE(text.find("P(3)"), std::string::npos);
  (void)f;
}

TEST(Trace, JsonlIsOneObjectPerRecord) {
  ShardedSwarm swarm(traced_cfg());
  Trace trace(swarm);
  swarm.insert_named(0x88, Pid{1});
  swarm.settle();
  std::ostringstream out;
  trace.write_jsonl(out);
  const std::string text = out.str();
  const auto lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, trace.size());
  EXPECT_NE(text.find("\"type\":\"INSERT\""), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(Trace, ClearAndReuse) {
  ShardedSwarm swarm(traced_cfg());
  Trace trace(swarm);
  swarm.insert_named(0x99, Pid{1});
  swarm.settle();
  EXPECT_GT(trace.size(), 0u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  swarm.insert_named(0x9A, Pid{1});
  swarm.settle();
  EXPECT_GT(trace.size(), 0u);
}

}  // namespace
}  // namespace lesslog::proto
