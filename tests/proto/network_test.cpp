#include "lesslog/proto/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace lesslog::proto {
namespace {

Message to(std::uint32_t dest) {
  Message m;
  m.type = MsgType::kGetRequest;
  m.to = core::Pid{dest};
  return m;
}

TEST(Network, DeliversAfterLatency) {
  sim::Engine engine(1);
  Network net(engine, {.base_latency = 0.02, .jitter = 0.0});
  std::vector<double> arrivals;
  net.attach(core::Pid{3}, [&](const Message&) {
    arrivals.push_back(engine.now());
  });
  net.send(to(3));
  engine.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.02);
  EXPECT_EQ(net.messages_sent(), 1);
  EXPECT_EQ(net.bytes_sent(), static_cast<std::int64_t>(kWireSize));
}

TEST(Network, JitterBoundsLatency) {
  sim::Engine engine(2);
  Network net(engine, {.base_latency = 0.01, .jitter = 0.01});
  std::vector<double> arrivals;
  net.attach(core::Pid{0}, [&](const Message&) {
    arrivals.push_back(engine.now());
  });
  double sent_at = 0.0;
  for (int i = 0; i < 200; ++i) {
    net.send(to(0));
  }
  engine.run_until(10.0);
  ASSERT_EQ(arrivals.size(), 200u);
  for (const double t : arrivals) {
    EXPECT_GE(t - sent_at, 0.01);
    EXPECT_LT(t - sent_at, 0.02);
  }
}

TEST(Network, MessageContentSurvivesTheWire) {
  sim::Engine engine(3);
  Network net(engine, {});
  Message received;
  net.attach(core::Pid{9}, [&](const Message& m) { received = m; });
  Message sent = to(9);
  sent.file = core::FileId{777};
  sent.version = 5;
  sent.hop_count = 2;
  net.send(sent);
  engine.run_until(1.0);
  EXPECT_EQ(received, sent);
}

TEST(Network, DetachedPeerIsUndeliverable) {
  sim::Engine engine(4);
  Network net(engine, {});
  int delivered = 0;
  net.attach(core::Pid{1}, [&](const Message&) { ++delivered; });
  net.send(to(1));
  net.detach(core::Pid{1});
  engine.run_until(1.0);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.undeliverable(), 1);
}

TEST(Network, NeverAttachedPeerIsUndeliverable) {
  sim::Engine engine(5);
  Network net(engine, {});
  net.send(to(200));
  engine.run_until(1.0);
  EXPECT_EQ(net.undeliverable(), 1);
}

// A network built with a slice sizes its table to the slice once, maps
// every PID of the slice to its own slot, and treats every other PID as
// undeliverable; attaching outside the slice is rejected.
TEST(Network, SliceBoundsTheDispatchTable) {
  sim::Engine engine(5);
  Network net(engine, {}, Network::PidSlice{.first = 3, .stride = 4,
                                            .count = 5});  // 3, 7, ..., 19
  EXPECT_EQ(net.dispatch_slots(), 5u);
  std::vector<std::uint32_t> got;
  for (std::uint32_t p = 3; p <= 19; p += 4) {
    net.attach(core::Pid{p}, [&got, p](const Message&) { got.push_back(p); });
  }
  EXPECT_EQ(net.dispatch_slots(), 5u);
  EXPECT_THROW(net.attach(core::Pid{5}, [](const Message&) {}),
               std::invalid_argument);
  EXPECT_THROW(net.attach(core::Pid{23}, [](const Message&) {}),
               std::invalid_argument);
  EXPECT_THROW(net.attach(core::Pid{1}, [](const Message&) {}),
               std::invalid_argument);
  for (std::uint32_t p = 0; p < 32; ++p) net.send(to(p));
  engine.run_until(1.0);
  std::sort(got.begin(), got.end());  // jitter reorders arrivals
  EXPECT_EQ(got, (std::vector<std::uint32_t>{3, 7, 11, 15, 19}));
  EXPECT_EQ(net.delivered(), 5);
  EXPECT_EQ(net.undeliverable(), 27);
  net.detach(core::Pid{5});  // outside the slice: nothing to detach
  net.detach(core::Pid{7});
  net.send(to(7));
  engine.run_until(2.0);
  EXPECT_EQ(net.undeliverable(), 28);
}

TEST(Network, DropProbabilityLosesRoughlyThatFraction) {
  sim::Engine engine(6);
  Network net(engine, {.base_latency = 0.001, .jitter = 0.0,
                       .drop_probability = 0.3});
  int delivered = 0;
  net.attach(core::Pid{0}, [&](const Message&) { ++delivered; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) net.send(to(0));
  engine.run_until(10.0);
  EXPECT_EQ(net.dropped(), n - delivered);
  EXPECT_NEAR(static_cast<double>(net.dropped()) / n, 0.3, 0.05);
}

TEST(Network, GeographyScalesLatencyWithDistance) {
  sim::Engine engine(8);
  Network net(engine, {.base_latency = 0.001, .jitter = 0.0});
  net.enable_geography({.slots = 16, .seed = 3, .latency_per_unit = 0.1});

  // Distances are symmetric, zero to self, and obey the triangle
  // inequality on a few sampled triples.
  for (std::uint32_t a = 0; a < 16; ++a) {
    EXPECT_DOUBLE_EQ(net.distance(core::Pid{a}, core::Pid{a}), 0.0);
    for (std::uint32_t b = 0; b < 16; ++b) {
      EXPECT_DOUBLE_EQ(net.distance(core::Pid{a}, core::Pid{b}),
                       net.distance(core::Pid{b}, core::Pid{a}));
      for (std::uint32_t c = 0; c < 16; c += 5) {
        EXPECT_LE(net.distance(core::Pid{a}, core::Pid{b}),
                  net.distance(core::Pid{a}, core::Pid{c}) +
                      net.distance(core::Pid{c}, core::Pid{b}) + 1e-12);
      }
    }
  }

  // Delivery time equals the link latency.
  double arrival = -1.0;
  net.attach(core::Pid{7}, [&](const Message&) { arrival = engine.now(); });
  Message m = to(7);
  m.from = core::Pid{2};
  net.send(m);
  engine.run_until(1.0);
  EXPECT_NEAR(arrival, net.link_latency(core::Pid{2}, core::Pid{7}), 1e-12);
  EXPECT_GT(arrival, 0.001);  // base plus a positive geographic component
}

TEST(Network, GeographyIsDeterministicPerSeed) {
  sim::Engine e1(1);
  sim::Engine e2(2);
  Network a(e1, {});
  Network b(e2, {});
  a.enable_geography({.slots = 8, .seed = 5});
  b.enable_geography({.slots = 8, .seed = 5});
  for (std::uint32_t i = 0; i < 8; ++i) {
    for (std::uint32_t j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(a.distance(core::Pid{i}, core::Pid{j}),
                       b.distance(core::Pid{i}, core::Pid{j}));
    }
  }
}

TEST(Network, ReattachReplacesHandler) {
  sim::Engine engine(7);
  Network net(engine, {});
  int first = 0;
  int second = 0;
  net.attach(core::Pid{4}, [&](const Message&) { ++first; });
  net.attach(core::Pid{4}, [&](const Message&) { ++second; });
  net.send(to(4));
  engine.run_until(1.0);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace lesslog::proto
