// The per-link fault model: plan validation, injector primitives, and
// the Network's faulted send path (accounting, reproducibility, and the
// clean fast path when no plan is installed).
#include "lesslog/proto/fault.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "lesslog/proto/network.hpp"

namespace lesslog::proto {
namespace {

Message to(std::uint32_t dest, std::uint32_t src = 0) {
  Message m;
  m.type = MsgType::kGetRequest;
  m.from = core::Pid{src};
  m.to = core::Pid{dest};
  return m;
}

TEST(FaultPlan, EmptyPlanIsValid) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, RejectsStopBeforeStart) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::corrupt(5.0, 5.0, 0.1));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsNegativeStart) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::duplicate(-1.0, 2.0, 0.1));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsOutOfRangeProbabilities) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::corrupt(0.0, 1.0, 1.5));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.rules.clear();
  plan.rules.push_back(FaultRule::burst_loss(0.0, 1.0, -0.1, 0.5, 1.0));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.rules.clear();
  plan.rules.push_back(FaultRule::burst_loss(0.0, 1.0, 0.1, 0.5, 2.0));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsNonPositiveDelaySpike) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::delay_spike(0.0, 1.0, 0.1, 0.0));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsEmptyPartitionGroup) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::partition(0.0, 1.0, {}));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, ErrorNamesTheRuleAndKind) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::duplicate(0.0, 1.0, 0.5));
  plan.rules.push_back(FaultRule::corrupt(0.0, 1.0, 7.0));
  try {
    plan.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rule 1"), std::string::npos) << what;
    EXPECT_NE(what.find("corrupt"), std::string::npos) << what;
  }
}

TEST(FaultInjector, PartitionSeparatesGroupFromComplement) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::partition(0.0, 1.0, {0, 1, 2}));
  FaultInjector inj(plan);
  inj.activate(0);
  EXPECT_TRUE(inj.partition_blocks(core::Pid{0}, core::Pid{5}));
  EXPECT_TRUE(inj.partition_blocks(core::Pid{5}, core::Pid{2}));
  EXPECT_FALSE(inj.partition_blocks(core::Pid{0}, core::Pid{1}));
  EXPECT_FALSE(inj.partition_blocks(core::Pid{5}, core::Pid{6}));
  EXPECT_EQ(inj.stats().partition_dropped, 2);
  inj.deactivate(0);
  EXPECT_FALSE(inj.partition_blocks(core::Pid{0}, core::Pid{5}));
  EXPECT_FALSE(inj.any_active());
}

TEST(FaultInjector, InactiveRulesDoNothing) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::burst_loss(0.0, 1.0, 1.0, 0.0, 1.0));
  plan.rules.push_back(FaultRule::duplicate(0.0, 1.0, 1.0));
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.any_active());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(inj.burst_drop(core::Pid{0}, core::Pid{1}));
    EXPECT_FALSE(inj.duplicate());
  }
  EXPECT_EQ(inj.stats(), FaultStats{});
}

TEST(FaultInjector, GilbertElliottLosesInBadStateOnly) {
  // p_good_to_bad = 1, p_bad_to_good = 0, loss_good = 0, loss_bad = 1:
  // the first datagram on a link survives (chain starts Good) and every
  // later one is lost.
  FaultPlan plan;
  plan.rules.push_back(FaultRule::burst_loss(0.0, 1.0, 1.0, 0.0, 1.0));
  FaultInjector inj(plan);
  inj.activate(0);
  EXPECT_FALSE(inj.burst_drop(core::Pid{0}, core::Pid{1}));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(inj.burst_drop(core::Pid{0}, core::Pid{1}));
  }
  // The chain is per directed link: the reverse direction starts Good.
  EXPECT_FALSE(inj.burst_drop(core::Pid{1}, core::Pid{0}));
  EXPECT_EQ(inj.stats().burst_dropped, 20);
}

TEST(FaultInjector, HealResetsGilbertElliottChains) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::burst_loss(0.0, 1.0, 1.0, 0.0, 1.0));
  FaultInjector inj(plan);
  inj.activate(0);
  EXPECT_FALSE(inj.burst_drop(core::Pid{0}, core::Pid{1}));  // goes Bad
  EXPECT_TRUE(inj.burst_drop(core::Pid{0}, core::Pid{1}));
  inj.deactivate(0);
  inj.activate(0);  // next window: every chain starts Good again
  EXPECT_FALSE(inj.burst_drop(core::Pid{0}, core::Pid{1}));
}

TEST(FaultInjector, CorruptionAlwaysDefeatsDecode) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::corrupt(0.0, 1.0, 1.0));
  FaultInjector inj(plan);
  inj.activate(0);
  for (int i = 0; i < 100; ++i) {
    WireBuffer wire{};
    encode_into(to(3), wire);
    ASSERT_TRUE(inj.corrupt(wire));
    EXPECT_FALSE(decode(wire).has_value()) << "iteration " << i;
  }
  EXPECT_EQ(inj.stats().corrupted, 100);
}

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rules.push_back(FaultRule::burst_loss(0.0, 1.0, 0.3, 0.3, 0.8, 0.1));
  plan.rules.push_back(FaultRule::duplicate(0.0, 1.0, 0.4));
  FaultInjector a(plan);
  FaultInjector b(plan);
  a.activate(0);
  a.activate(1);
  b.activate(0);
  b.activate(1);
  for (int i = 0; i < 500; ++i) {
    const core::Pid from{static_cast<std::uint32_t>(i % 7)};
    const core::Pid dest{static_cast<std::uint32_t>(i % 5)};
    EXPECT_EQ(a.burst_drop(from, dest), b.burst_drop(from, dest));
    EXPECT_EQ(a.duplicate(), b.duplicate());
  }
  EXPECT_EQ(a.stats(), b.stats());
}

// A link's Gilbert–Elliott chain must be a pure function of the datagram
// count on that link: interleaving traffic from other links in between
// must not change any link's loss sequence. (This is what makes lossy
// runs shard-count-invariant — shard layout permutes the global datagram
// order but never a single link's order.)
TEST(FaultInjector, BurstChainsInvariantToCrossLinkInterleaving) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.rules.push_back(FaultRule::burst_loss(0.0, 1.0, 0.3, 0.3, 0.8, 0.1));

  const std::vector<std::pair<std::uint32_t, std::uint32_t>> links = {
      {0, 1}, {1, 0}, {2, 5}, {7, 3}};
  const int kPerLink = 200;

  // Injector A: strict round-robin across the links.
  FaultInjector a(plan);
  a.activate(0);
  std::vector<std::vector<bool>> seq_a(links.size());
  for (int i = 0; i < kPerLink; ++i) {
    for (std::size_t l = 0; l < links.size(); ++l) {
      seq_a[l].push_back(a.burst_drop(core::Pid{links[l].first},
                                      core::Pid{links[l].second}));
    }
  }

  // Injector B: one link at a time, all its datagrams back to back.
  FaultInjector b(plan);
  b.activate(0);
  std::vector<std::vector<bool>> seq_b(links.size());
  for (std::size_t l = 0; l < links.size(); ++l) {
    for (int i = 0; i < kPerLink; ++i) {
      seq_b[l].push_back(b.burst_drop(core::Pid{links[l].first},
                                      core::Pid{links[l].second}));
    }
  }

  EXPECT_EQ(seq_a, seq_b);
  EXPECT_EQ(a.stats(), b.stats());
}

// A healed-and-reopened burst window is a fresh generation: chains start
// Good again with fresh streams, not a replay of the first window.
TEST(FaultInjector, ReopenedBurstWindowIsFreshGeneration) {
  FaultPlan plan;
  plan.seed = 77;
  plan.rules.push_back(FaultRule::burst_loss(0.0, 1.0, 0.4, 0.2, 0.9, 0.05));
  FaultInjector inj(plan);

  const auto run_window = [&] {
    std::vector<bool> seq;
    inj.activate(0);
    for (int i = 0; i < 300; ++i) {
      seq.push_back(inj.burst_drop(core::Pid{4}, core::Pid{9}));
    }
    inj.deactivate(0);
    return seq;
  };
  const std::vector<bool> first = run_window();
  const std::vector<bool> second = run_window();
  EXPECT_NE(first, second);

  // And the whole two-window run replays bit-identically from the plan.
  FaultInjector replay(plan);
  const auto replay_window = [&] {
    std::vector<bool> seq;
    replay.activate(0);
    for (int i = 0; i < 300; ++i) {
      seq.push_back(replay.burst_drop(core::Pid{4}, core::Pid{9}));
    }
    replay.deactivate(0);
    return seq;
  };
  EXPECT_EQ(replay_window(), first);
  EXPECT_EQ(replay_window(), second);
}

// ---- Network integration -------------------------------------------------

TEST(NetworkFaults, NoPlanMeansNoInjector) {
  sim::Engine engine(1);
  Network net(engine, {});
  EXPECT_EQ(net.fault_injector(), nullptr);
}

TEST(NetworkFaults, PartitionWindowDropsThenHeals) {
  sim::Engine engine(1);
  Network net(engine, {.base_latency = 0.01, .jitter = 0.0});
  int arrived = 0;
  net.attach(core::Pid{1}, [&](const Message&) { ++arrived; });
  FaultPlan plan;
  plan.rules.push_back(FaultRule::partition(1.0, 2.0, {0}));
  net.install_fault_plan(plan);

  net.send(to(1, 0));  // before the split: delivered
  engine.run_until(0.5);
  EXPECT_EQ(arrived, 1);

  engine.at(1.5, [&] { net.send(to(1, 0)); });  // inside: dropped
  engine.run_until(1.9);
  EXPECT_EQ(arrived, 1);

  engine.at(2.5, [&] { net.send(to(1, 0)); });  // healed: delivered
  engine.queue().run_all();
  EXPECT_EQ(arrived, 2);
  ASSERT_NE(net.fault_injector(), nullptr);
  EXPECT_EQ(net.fault_injector()->stats().partition_dropped, 1);
  EXPECT_FALSE(net.fault_injector()->any_active());
}

TEST(NetworkFaults, CorruptedDatagramsCountNotDeliver) {
  sim::Engine engine(1);
  Network net(engine, {.base_latency = 0.01, .jitter = 0.0});
  int arrived = 0;
  net.attach(core::Pid{1}, [&](const Message&) { ++arrived; });
  FaultPlan plan;
  plan.rules.push_back(FaultRule::corrupt(0.0, 100.0, 1.0));
  net.install_fault_plan(plan);
  for (int i = 0; i < 25; ++i) net.send(to(1, 0));
  engine.queue().run_all();
  EXPECT_EQ(arrived, 0);
  EXPECT_EQ(net.corrupted(), 25);
  EXPECT_EQ(net.delivered(), 0);
  EXPECT_EQ(net.fault_injector()->stats().corrupted, 25);
}

TEST(NetworkFaults, DuplicatesDeliverTwice) {
  sim::Engine engine(1);
  Network net(engine, {.base_latency = 0.01, .jitter = 0.005});
  int arrived = 0;
  net.attach(core::Pid{1}, [&](const Message&) { ++arrived; });
  FaultPlan plan;
  plan.rules.push_back(FaultRule::duplicate(0.0, 100.0, 1.0));
  net.install_fault_plan(plan);
  for (int i = 0; i < 10; ++i) net.send(to(1, 0));
  engine.queue().run_all();
  EXPECT_EQ(arrived, 20);
  EXPECT_EQ(net.messages_sent(), 10);
  EXPECT_EQ(net.delivered(), 20);
  EXPECT_EQ(net.fault_injector()->stats().duplicated, 10);
}

TEST(NetworkFaults, DelaySpikeReordersAgainstLaterTraffic) {
  sim::Engine engine(1);
  Network net(engine, {.base_latency = 0.01, .jitter = 0.0});
  std::vector<std::uint64_t> order;
  net.attach(core::Pid{1},
             [&](const Message& m) { order.push_back(m.request_id); });
  FaultPlan plan;
  // Only the first datagram is inside the spike window.
  plan.rules.push_back(FaultRule::delay_spike(0.0, 0.001, 1.0, 0.5));
  net.install_fault_plan(plan);
  Message first = to(1, 0);
  first.request_id = 1;
  net.send(first);
  engine.at(0.1, [&] {
    Message second = to(1, 0);
    second.request_id = 2;
    net.send(second);
  });
  engine.queue().run_all();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);  // the spiked datagram arrives last
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(net.fault_injector()->stats().delay_spikes, 1);
}

TEST(NetworkFaults, CountersReconcileUnderMixedFaults) {
  sim::Engine engine(7);
  Network net(engine, {.base_latency = 0.01, .jitter = 0.002,
                       .drop_probability = 0.05});
  int arrived = 0;
  net.attach(core::Pid{1}, [&](const Message&) { ++arrived; });
  // PID 2 stays detached so some datagrams terminate undeliverable.
  FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back(FaultRule::burst_loss(0.0, 50.0, 0.2, 0.3, 0.9));
  plan.rules.push_back(FaultRule::duplicate(0.0, 50.0, 0.3));
  plan.rules.push_back(FaultRule::corrupt(0.0, 50.0, 0.2));
  plan.rules.push_back(FaultRule::delay_spike(0.0, 50.0, 0.2, 0.3));
  net.install_fault_plan(plan);
  util::Rng pick(11);
  for (int i = 0; i < 2000; ++i) {
    net.send(to(pick.bernoulli(0.8) ? 1u : 2u, 0));
  }
  engine.queue().run_all();
  const FaultStats& s = net.fault_injector()->stats();
  EXPECT_EQ(net.messages_sent() + s.duplicated,
            net.delivered() + net.dropped() + net.undeliverable() +
                net.corrupted() + s.burst_dropped + s.partition_dropped);
  EXPECT_EQ(s.corrupted, net.corrupted());
  EXPECT_EQ(net.delivered(), arrived);
  EXPECT_GT(s.burst_dropped, 0);
  EXPECT_GT(s.duplicated, 0);
  EXPECT_GT(net.corrupted(), 0);
}

TEST(NetworkFaults, InstallRejectsMalformedPlans) {
  sim::Engine engine(1);
  Network net(engine, {});
  FaultPlan plan;
  plan.rules.push_back(FaultRule::corrupt(2.0, 1.0, 0.5));
  EXPECT_THROW(net.install_fault_plan(plan), std::invalid_argument);
  EXPECT_EQ(net.fault_injector(), nullptr);
}

}  // namespace
}  // namespace lesslog::proto
