// obs::Registry cells and snapshots: layout, overflow, merge algebra,
// and cross-swarm determinism.
#include "lesslog/obs/metrics.hpp"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::obs {
namespace {

// The padding contract is compile-time: every cell owns one cache line.
static_assert(sizeof(Counter) == kCellSize);
static_assert(alignof(Counter) == kCellSize);
static_assert(sizeof(Gauge) == kCellSize);
static_assert(alignof(Gauge) == kCellSize);

TEST(MetricCells, AdjacentRegistryCellsNeverShareACacheLine) {
  Registry reg;
  const Counter& a = reg.counter("a");
  const Counter& b = reg.counter("b");
  const Gauge& g = reg.gauge("g");
  const Gauge& h = reg.gauge("h");
  const auto line = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / kCellSize;
  };
  EXPECT_NE(line(&a), line(&b));
  EXPECT_NE(line(&g), line(&h));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a) % kCellSize, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&g) % kCellSize, 0u);
}

TEST(MetricCells, RegistryReturnsTheSameCellForTheSameName) {
  Registry reg;
  Counter& a = reg.counter("hits");
  a.inc();
  EXPECT_EQ(&reg.counter("hits"), &a);
  EXPECT_EQ(reg.counter("hits").value(), 1u);
  EXPECT_NE(&reg.counter("misses"), &a);
}

TEST(MetricCells, CellReferencesStayStableAcrossLaterRegistrations) {
  Registry reg;
  Counter& first = reg.counter("first");
  first.add(7);
  // Deque storage: registering many more cells must not move `first`.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name).inc();
  }
  EXPECT_EQ(&reg.counter("first"), &first);
  EXPECT_EQ(first.value(), 7u);
}

TEST(MetricCells, CounterWrapsModulo2To64) {
  Counter c;
  c.add(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(c.value(), std::numeric_limits<std::uint64_t>::max());
  c.inc();
  EXPECT_EQ(c.value(), 0u);
  c.add(std::numeric_limits<std::uint64_t>::max());
  c.add(2);
  EXPECT_EQ(c.value(), 1u);
}

LatencyHistogram histogram_of(std::uint64_t seed, int samples) {
  util::Rng rng(seed);
  LatencyHistogram h;
  for (int i = 0; i < samples; ++i) {
    h.add(static_cast<double>(rng.bounded(1'000'000)) * 1e-6);
  }
  return h;
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutativeInTheCounts) {
  const LatencyHistogram a = histogram_of(1, 400);
  const LatencyHistogram b = histogram_of(2, 300);
  const LatencyHistogram c = histogram_of(3, 200);

  LatencyHistogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  LatencyHistogram a_bc = b;
  a_bc.merge(c);
  a_bc.merge(a);

  EXPECT_EQ(ab_c.total(), 900);
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    EXPECT_EQ(ab_c.bucket(i), a_bc.bucket(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(ab_c.percentile(50.0), a_bc.percentile(50.0));
  EXPECT_DOUBLE_EQ(ab_c.percentile(99.0), a_bc.percentile(99.0));
}

TEST(SnapshotTest, EmptySnapshotAdoptsTheOtherShapeOnMerge) {
  Registry reg;
  reg.counter("hits").add(3);
  reg.gauge("depth").set(5.0);
  reg.histogram("lat").add(0.010);

  Snapshot merged;
  merged.time = 1.0;  // merge_from keeps the destination's own timestamp
  merged.merge_from(reg.snapshot(1.0));
  EXPECT_EQ(merged, reg.snapshot(1.0));
}

TEST(SnapshotTest, MergeAddsCountersGaugesAndBuckets) {
  Registry a;
  a.counter("hits").add(3);
  a.gauge("depth").set(5.0);
  a.histogram("lat").add(0.010);
  Registry b;
  b.counter("hits").add(4);
  b.gauge("depth").set(2.0);
  b.histogram("lat").add(0.010);

  Snapshot merged = a.snapshot(1.0);
  merged.merge_from(b.snapshot(1.0));
  EXPECT_EQ(*merged.counter("hits"), 7u);
  EXPECT_DOUBLE_EQ(*merged.gauge("depth"), 7.0);
  EXPECT_EQ(merged.histogram("lat")->total(), 2);
}

TEST(SnapshotTest, MergeIsAssociativeOverRegistries) {
  const auto registry_snapshot = [](std::uint64_t seed) {
    Registry reg;
    util::Rng rng(seed);
    reg.counter("events").add(rng.bounded(1000));
    reg.gauge("depth").set(static_cast<double>(rng.bounded(64)));
    for (int i = 0; i < 50; ++i) {
      reg.histogram("lat").add(static_cast<double>(rng.bounded(100'000)) *
                               1e-6);
    }
    return reg.snapshot(2.0);
  };
  const Snapshot a = registry_snapshot(1);
  const Snapshot b = registry_snapshot(2);
  const Snapshot c = registry_snapshot(3);

  Snapshot ab_c = a;
  ab_c.merge_from(b);
  ab_c.merge_from(c);
  Snapshot bc = b;
  bc.merge_from(c);
  Snapshot a_bc = a;
  a_bc.merge_from(bc);
  EXPECT_EQ(ab_c.counters, a_bc.counters);
  EXPECT_EQ(ab_c.gauges, a_bc.gauges);
  for (std::size_t h = 0; h < ab_c.histograms.size(); ++h) {
    for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
      EXPECT_EQ(ab_c.histograms[h].second.bucket(i),
                a_bc.histograms[h].second.bucket(i));
    }
  }
}

proto::ShardedSwarm::Config small_swarm_config() {
  proto::ShardedSwarm::Config cfg;
  cfg.m = 5;
  cfg.b = 0;
  cfg.nodes = util::space_size(5);
  cfg.seed = 42;
  cfg.net.base_latency = 0.010;
  cfg.net.jitter = 0.005;
  return cfg;
}

Snapshot run_and_snapshot() {
  proto::ShardedSwarm swarm(small_swarm_config());
  util::Rng rng(7);
  std::vector<std::pair<core::FileId, core::Pid>> files;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const core::Pid target{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(5)))};
    files.emplace_back(core::FileId{0xD00D00ULL + i}, target);
    swarm.insert(files.back().first, target, core::Pid{0});
  }
  swarm.settle();
  for (int i = 0; i < 60; ++i) {
    const auto& [f, target] = files[rng.bounded(files.size())];
    const core::Pid at{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(5)))};
    swarm.get(f, target, at);
  }
  swarm.settle();
  return swarm.metrics_snapshot(swarm.engine(0).now());
}

TEST(SnapshotTest, EqualSeedsProduceValueIdenticalSwarmSnapshots) {
  const Snapshot first = run_and_snapshot();
  const Snapshot second = run_and_snapshot();
  EXPECT_FALSE(first.empty());
  EXPECT_GT(*first.counter("client.gets"), 0u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace lesslog::obs
