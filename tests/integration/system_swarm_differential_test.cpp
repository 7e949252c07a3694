// Differential testing of the two protocol altitudes: the direct-call
// core::System and the datagram-level proto::ShardedSwarm must agree on
// holder placement, routing outcomes, and availability across identical
// operation sequences (ψ-named files, lossless network).
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "lesslog/core/system.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/hashing.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog {
namespace {

using core::FileId;
using core::Pid;

// gtest names each case after the parameter's raw bytes, so the padding
// is spelled out as zeroed members: the names stay the same from build
// to build.
struct DiffCase {
  int m;
  int b;
  std::uint32_t nodes;
  std::uint32_t pad0 = 0;
  std::uint64_t seed;
  int ops;
  std::uint32_t pad1 = 0;
};
static_assert(std::has_unique_object_representations_v<DiffCase>);

class SystemSwarmDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SystemSwarmDifferential, IdenticalOperationSequencesConverge) {
  const DiffCase& c = GetParam();
  const int m = c.m;
  const int b = c.b;
  const std::uint32_t nodes = c.nodes;
  const std::uint64_t seed = c.seed;

  core::System sys({.m = m, .b = b, .seed = seed});
  sys.bootstrap(nodes);

  proto::ShardedSwarm::Config scfg;
  scfg.m = m;
  scfg.b = b;
  scfg.nodes = nodes;
  scfg.seed = seed;
  scfg.net.base_latency = 0.001;
  scfg.net.jitter = 0.0;
  proto::ShardedSwarm swarm(scfg);

  std::vector<FileId> files;
  util::Rng rng(seed * 31 + 7);

  const auto random_live = [&]() -> Pid {
    const std::vector<std::uint32_t> live = sys.status().live_pids();
    return Pid{live[rng.bounded(live.size())]};
  };

  for (int op = 0; op < c.ops; ++op) {
    switch (rng.bounded(4)) {
      case 0: {  // insert a ψ-named file in both worlds
        const std::uint64_t key = seed * 1000 + static_cast<std::uint64_t>(op);
        files.push_back(sys.insert_key(key));
        // System's insert_key mixes the key; mirror the exact id/target.
        const FileId f = files.back();
        swarm.insert(f, sys.target_of(f), random_live());
        swarm.settle();
        break;
      }
      case 1: {  // graceful leave
        if (sys.live_count() > 4) {
          const Pid victim = random_live();
          sys.leave(victim);
          swarm.depart(victim);
          swarm.settle();
        }
        break;
      }
      case 2: {  // rejoin the lowest dead PID
        if (sys.live_count() < nodes) {
          const Pid joined = sys.join();
          swarm.join(joined);
          swarm.settle();
        }
        break;
      }
      case 3: {  // probe availability from a random node
        if (!files.empty()) {
          const FileId f = files[rng.bounded(files.size())];
          const Pid at = random_live();
          const auto expected = sys.get(f, at);
          proto::GetResult got;
          swarm.get(f, sys.target_of(f), at,
                    [&](const proto::GetResult& r) { got = r; });
          swarm.settle();
          EXPECT_EQ(got.ok, expected.ok()) << "file " << f.key();
          if (expected.ok()) {
            EXPECT_EQ(got.hops, expected.route.hops());
          }
        }
        break;
      }
    }
  }

  // Liveness views agree.
  EXPECT_EQ(swarm.status(), sys.status());

  // Authoritative placement agrees: for each file, the per-subtree
  // holders carry inserted copies in both worlds.
  for (const FileId f : files) {
    const core::LookupTree tree(m, sys.target_of(f));
    const core::SubtreeView view(tree, b);
    for (const Pid holder : view.insertion_targets(sys.status())) {
      const auto sys_info = sys.node(holder).store().info(f);
      const auto swarm_info = swarm.peer(holder).store().info(f);
      ASSERT_TRUE(sys_info.has_value())
          << "System missing holder copy, file " << f.key();
      ASSERT_TRUE(swarm_info.has_value())
          << "ShardedSwarm missing holder copy, file " << f.key();
      EXPECT_EQ(sys_info->kind, core::CopyKind::kInserted);
      EXPECT_EQ(swarm_info->kind, core::CopyKind::kInserted);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SystemSwarmDifferential,
    ::testing::Values(
        DiffCase{.m = 4, .b = 0, .nodes = 16, .seed = 1, .ops = 40},
        DiffCase{.m = 5, .b = 0, .nodes = 32, .seed = 2, .ops = 60},
        DiffCase{.m = 5, .b = 1, .nodes = 32, .seed = 3, .ops = 60},
        DiffCase{.m = 6, .b = 0, .nodes = 64, .seed = 4, .ops = 80},
        DiffCase{.m = 6, .b = 2, .nodes = 64, .seed = 5, .ops = 80}));

}  // namespace
}  // namespace lesslog
