// Crash -> restart recovery under a lossy network.
//
// With b > 0, Section 5.3 recovery plus the acked/retransmitted file
// push must restore every ψ-named file even when datagrams drop; with
// b = 0 there is nothing to recover from and the lost set must be
// exactly the crashed node's inserted files — no more, no less.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto {
namespace {

bool live_copy_exists(ShardedSwarm& swarm, core::FileId f) {
  for (std::uint32_t p = 0; p < swarm.status().capacity(); ++p) {
    if (swarm.status().is_live(p) &&
        swarm.peer(core::Pid{p}).store().has(f)) {
      return true;
    }
  }
  return false;
}

TEST(CrashRecovery, LossyNetworkStillRestoresEveryFileWithFaultBits) {
  ShardedSwarm::Config cfg;
  cfg.m = 5;
  cfg.b = 2;
  cfg.nodes = 32;
  cfg.seed = 42;
  cfg.net.drop_probability = 0.10;  // pushes must survive via retries
  ShardedSwarm swarm(cfg);

  std::vector<core::FileId> files;
  for (std::uint64_t key = 1; key <= 40; ++key) {
    files.push_back(
        swarm.insert_named(key * 1009, core::Pid{(std::uint32_t)key % 32}));
  }
  swarm.settle();
  for (const core::FileId f : files) {
    ASSERT_TRUE(live_copy_exists(swarm, f));
  }

  const core::Pid victim{7};
  swarm.crash(victim);
  swarm.settle();
  // Status announcements ride the same lossy wire; repeat the repair
  // broadcast until views converge (each pass closes surviving gaps —
  // the anti-entropy a real failure detector provides).
  for (int pass = 0; pass < 3; ++pass) {
    swarm.reannounce();
    swarm.settle();
  }
  // Sibling-subtree recovery has re-inserted the lost copies: every file
  // is still held somewhere live, with the crashed node still down.
  for (const core::FileId f : files) {
    EXPECT_TRUE(live_copy_exists(swarm, f))
        << "file " << f.key() << " lost despite b=2 and acked pushes";
  }

  swarm.restart(victim);
  swarm.settle();
  for (int pass = 0; pass < 3; ++pass) {
    swarm.reannounce();
    swarm.settle();
  }
  for (const core::FileId f : files) {
    EXPECT_TRUE(live_copy_exists(swarm, f));
  }

  // End-to-end: every file is GETtable from an arbitrary live peer.
  int ok = 0;
  for (const core::FileId f : files) {
    swarm.get(f, swarm.peer(core::Pid{3}).target_of(f), core::Pid{3},
              [&ok](const GetResult& res) { ok += res.ok ? 1 : 0; });
  }
  swarm.settle();
  EXPECT_EQ(ok, static_cast<int>(files.size()));
}

TEST(CrashRecovery, WithoutFaultBitsLostFilesAreExactlyTheVictims) {
  ShardedSwarm::Config cfg;
  cfg.m = 5;
  cfg.b = 0;
  cfg.nodes = 32;
  cfg.seed = 7;
  ShardedSwarm swarm(cfg);

  std::vector<core::FileId> files;
  for (std::uint64_t key = 1; key <= 60; ++key) {
    files.push_back(
        swarm.insert_named(key * 7919, core::Pid{(std::uint32_t)key % 32}));
  }
  swarm.settle();

  // Ground truth before the crash: which files does the victim hold (the
  // single authoritative copy each, since b = 0 and nothing replicated).
  const core::Pid victim{11};
  std::set<std::uint64_t> on_victim;
  for (const core::FileId f : files) {
    if (swarm.peer(victim).store().has(f)) on_victim.insert(f.key());
  }
  ASSERT_FALSE(on_victim.empty()) << "test needs the victim to hold files";

  swarm.crash(victim);
  swarm.settle();

  // Exact accounting: a file is lost iff its only copy sat on the victim.
  for (const core::FileId f : files) {
    EXPECT_EQ(live_copy_exists(swarm, f), on_victim.count(f.key()) == 0)
        << "file " << f.key();
  }

  // The restart reclaims nothing for the lost files (their bytes are
  // gone), but the swarm stays consistent: GETs for lost files fault,
  // GETs for surviving files succeed.
  swarm.restart(victim);
  swarm.settle();
  int ok = 0;
  int fault = 0;
  for (const core::FileId f : files) {
    swarm.get(f, swarm.peer(core::Pid{3}).target_of(f), core::Pid{3},
              [&](const GetResult& res) { (res.ok ? ok : fault)++; });
  }
  swarm.settle();
  EXPECT_EQ(fault, static_cast<int>(on_victim.size()));
  EXPECT_EQ(ok, static_cast<int>(files.size() - on_victim.size()));
}

}  // namespace
}  // namespace lesslog::proto
