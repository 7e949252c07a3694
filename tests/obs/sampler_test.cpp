// Sampler and TimeSeries: deterministic periodic snapshots on the sim
// engine, and the scalar-flattened table/CSV/JSON views.
#include "lesslog/obs/sampler.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/minijson.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::obs {
namespace {

TEST(SamplerTest, SamplesEveryIntervalUntilStopAt) {
  sim::Engine engine(1);
  Registry reg;
  Counter& events = reg.counter("events");
  Sampler sampler(engine, reg, /*interval=*/0.5, /*stop_at=*/2.0);
  sampler.start();
  for (int i = 1; i <= 4; ++i) {
    engine.at(0.3 * i, [&events] { events.inc(); });
  }
  engine.queue().run_all();

  const TimeSeries& series = sampler.series();
  ASSERT_EQ(series.size(), 4u);  // t = 0.5, 1.0, 1.5, 2.0
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series.samples[i].time, 0.5 * static_cast<double>(i + 1));
  }
  // Counters are cumulative: 0.3/0.6/0.9/1.2 land one per 0.5s window
  // except the first (0.3) and second (0.6, 0.9) split.
  EXPECT_EQ(*series.samples[0].counter("events"), 1u);
  EXPECT_EQ(*series.samples[3].counter("events"), 4u);
}

TEST(SamplerTest, PreSampleHookRefreshesDerivedGaugesBeforeEachSnapshot) {
  sim::Engine engine(1);
  Registry reg;
  Gauge& depth = reg.gauge("depth");
  int calls = 0;
  Sampler sampler(engine, reg, 0.5, 1.0, [&] {
    ++calls;
    depth.set(static_cast<double>(calls));
  });
  sampler.start();
  engine.queue().run_all();
  ASSERT_EQ(sampler.series().size(), 2u);
  EXPECT_DOUBLE_EQ(*sampler.series().samples[0].gauge("depth"), 1.0);
  EXPECT_DOUBLE_EQ(*sampler.series().samples[1].gauge("depth"), 2.0);
}

TEST(TimeSeriesTest, ToTableFlattensScalarsAndUnknownColumnsReadZero) {
  sim::Engine engine(1);
  Registry reg;
  reg.counter("hits").add(3);
  reg.histogram("lat").add(0.010);
  Sampler sampler(engine, reg, 1.0, 1.0);
  sampler.start();
  engine.queue().run_all();

  const std::string table =
      sampler.series().to_table({"hits", "lat", "nope"}).render();
  EXPECT_NE(table.find("t (s)"), std::string::npos);
  EXPECT_NE(table.find("hits"), std::string::npos);
  EXPECT_NE(table.find("lat"), std::string::npos);  // resolves to p50 ms
  EXPECT_NE(table.find("nope"), std::string::npos);  // unknown: zeros
}

TEST(TimeSeriesTest, WriteJsonEmitsAParsableSampleArray) {
  sim::Engine engine(1);
  Registry reg;
  reg.counter("hits").add(2);
  reg.gauge("depth").set(4.0);
  reg.histogram("lat").add(0.020);
  Sampler sampler(engine, reg, 0.5, 1.0);
  sampler.start();
  engine.queue().run_all();

  std::ostringstream out;
  sampler.series().write_json(out);
  const auto doc = util::minijson::parse(out.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->array.size(), 2u);
  const util::minijson::Value* t = doc->array[0].find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_DOUBLE_EQ(t->number, 0.5);
}

TEST(SamplerTest, SwarmSamplingIsDeterministicAcrossRuns) {
  const auto run = [] {
    proto::ShardedSwarm::Config cfg;
    cfg.m = 5;
    cfg.b = 0;
    cfg.nodes = util::space_size(5);
    cfg.seed = 9;
    cfg.net.base_latency = 0.010;
    cfg.net.jitter = 0.005;
    proto::ShardedSwarm swarm(cfg);
    swarm.enable_metrics_sampling(0.05, 1.0);
    const core::FileId f{0xABCULL};
    swarm.insert(f, core::Pid{5}, core::Pid{0});
    swarm.settle();
    util::Rng rng(3);
    for (int i = 0; i < 40; ++i) {
      const core::Pid at{
          static_cast<std::uint32_t>(rng.bounded(util::space_size(5)))};
      swarm.get(f, core::Pid{5}, at);
    }
    swarm.settle();
    return swarm.metrics_series().samples;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace lesslog::obs
