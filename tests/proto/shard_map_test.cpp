// ShardMap — the PID→shard assignment seam behind ShardRouter and
// ShardedSwarm. Three pinned properties:
//   1. the range map is exactly the legacy contiguous partition
//      (p / ceil(2^m / S)) the sharded swarm shipped with — swapping the
//      hard-coded division for the seam changed nothing;
//   2. both maps are total, deterministic value types;
//   3. the subtree map's reason to exist: over every physical lookup
//      tree, it never cuts more parent/child edges than the range map,
//      and for power-of-two S it cuts at most S - 1 (the spine near the
//      root) while the range map cuts edges at every level.
#include "lesslog/proto/shard_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lesslog/core/ids.hpp"
#include "lesslog/core/virtual_tree.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/bits.hpp"

namespace lesslog::proto {
namespace {

TEST(ShardMap, RangeIsTheLegacyContiguousPartition) {
  for (int m = 1; m <= 8; ++m) {
    const std::uint32_t n = util::space_size(m);
    for (std::uint32_t shards = 1; shards <= n; ++shards) {
      const ShardMap map(ShardMap::Kind::kRange, m, shards);
      const std::uint32_t block = (n + shards - 1u) / shards;
      for (std::uint32_t p = 0; p < n; ++p) {
        ASSERT_EQ(map.shard_of(core::Pid{p}), p / block)
            << "m=" << m << " S=" << shards << " p=" << p;
      }
    }
  }
}

TEST(ShardMap, SubtreeIsModuloAndTotal) {
  for (int m = 1; m <= 8; ++m) {
    const std::uint32_t n = util::space_size(m);
    for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
      if (shards > n) continue;
      const ShardMap map(ShardMap::Kind::kSubtree, m, shards);
      std::vector<bool> hit(shards, false);
      for (std::uint32_t p = 0; p < n; ++p) {
        const std::size_t s = map.shard_of(core::Pid{p});
        ASSERT_EQ(s, p % shards);
        ASSERT_LT(s, shards);
        hit[s] = true;
      }
      for (std::uint32_t s = 0; s < shards; ++s) {
        EXPECT_TRUE(hit[s]) << "shard " << s << " owns no PID";
      }
    }
  }
}

TEST(ShardMap, IsADeterministicValueType) {
  const ShardMap a(ShardMap::Kind::kSubtree, 10, 4);
  const ShardMap b(ShardMap::Kind::kSubtree, 10, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, ShardMap(ShardMap::Kind::kRange, 10, 4));
  for (std::uint32_t p = 0; p < util::space_size(10); ++p) {
    EXPECT_EQ(a.shard_of(core::Pid{p}), b.shard_of(core::Pid{p}));
  }
  // Default construction is the single-shard identity.
  const ShardMap identity;
  EXPECT_EQ(identity.shards(), 1u);
  EXPECT_EQ(identity.shard_of(core::Pid{0}), 0u);
}

/// Counts parent/child edges of the physical lookup tree rooted at
/// `root` whose two endpoints land on different shards.
std::uint32_t crossing_edges(const ShardMap& map, int m, core::Pid root) {
  const core::VirtualTree tree(m);
  const core::IdMapper ids(m, root);
  std::uint32_t crossing = 0;
  for (std::uint32_t v = 0; v < util::space_size(m); ++v) {
    const core::Vid vid{v};
    if (tree.is_root(vid)) continue;
    const core::Pid child = ids.pid_of(vid);
    const core::Pid parent = ids.pid_of(tree.parent(vid));
    if (map.shard_of(child) != map.shard_of(parent)) ++crossing;
  }
  return crossing;
}

TEST(ShardMap, SubtreeNeverCutsMoreTreeEdgesThanRange) {
  // The regression the locality map exists for, checked over EVERY
  // physical tree (all 2^m roots): the subtree map cuts at most S - 1
  // edges (the spine whose VIDs have >= m - log2(S) leading ones) while
  // the range map cuts edges throughout the tree. If someone changes
  // either policy and breaks the dominance, this is the test that fires.
  for (const int m : {4, 6, 8}) {
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      const ShardMap range(ShardMap::Kind::kRange, m, shards);
      const ShardMap subtree(ShardMap::Kind::kSubtree, m, shards);
      for (std::uint32_t r = 0; r < util::space_size(m); ++r) {
        const std::uint32_t cut_range =
            crossing_edges(range, m, core::Pid{r});
        const std::uint32_t cut_subtree =
            crossing_edges(subtree, m, core::Pid{r});
        ASSERT_LE(cut_subtree, cut_range)
            << "m=" << m << " S=" << shards << " root=" << r;
        ASSERT_LE(cut_subtree, shards - 1u)
            << "m=" << m << " S=" << shards << " root=" << r;
      }
    }
  }
}

// Each shard network's dispatch table holds exactly its slice of the ID
// space, under both maps at S = 4: the slices tile the space, every
// datagram of an insert-and-GET round lands, and a datagram to a PID that
// never attached counts as undeliverable.
TEST(ShardMap, ShardNetworksHoldExactlyTheirSlice) {
  for (const ShardMap::Kind kind :
       {ShardMap::Kind::kRange, ShardMap::Kind::kSubtree}) {
    ShardedSwarm::Config cfg;
    cfg.m = 8;
    cfg.nodes = 200;  // PIDs 200..255 never attach
    cfg.seed = 3;
    cfg.shards = 4;
    cfg.shard_map = kind;
    ShardedSwarm swarm(cfg);
    const ShardMap& map = swarm.map();
    std::vector<int> owner(256, -1);
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(swarm.network(s).dispatch_slots(), 64u) << shard_map_name(kind);
      for (std::uint32_t i = 0; i < map.pid_count(s); ++i) {
        const std::uint32_t p = map.first_pid(s) + i * map.pid_stride();
        ASSERT_LT(p, 256u);
        EXPECT_EQ(map.shard_of(core::Pid{p}), s) << shard_map_name(kind);
        EXPECT_EQ(owner[p], -1) << "PID " << p << " in two slices";
        owner[p] = static_cast<int>(s);
      }
    }
    EXPECT_EQ(std::count(owner.begin(), owner.end(), -1), 0);

    const core::FileId f = swarm.insert_named(0xB10C, core::Pid{5});
    swarm.settle();
    for (std::uint32_t p = 0; p < cfg.nodes; p += 3) {
      swarm.get(f, swarm.peer(core::Pid{p}).target_of(f), core::Pid{p});
    }
    swarm.settle();
    EXPECT_GT(swarm.delivered(), 0) << shard_map_name(kind);
    EXPECT_EQ(swarm.delivered(), swarm.messages_sent())
        << shard_map_name(kind);
    EXPECT_EQ(swarm.undeliverable(), 0) << shard_map_name(kind);

    Message stray;
    stray.from = core::Pid{0};
    stray.to = core::Pid{250};
    swarm.network(swarm.shard_of(core::Pid{0})).send(stray);
    swarm.settle();
    EXPECT_EQ(swarm.undeliverable(), 1) << shard_map_name(kind);
  }
}

}  // namespace
}  // namespace lesslog::proto
