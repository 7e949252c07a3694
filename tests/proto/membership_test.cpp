// Wire-level Section 5: graceful leaves push files ahead of departure,
// joins reclaim them, crashes recover from sibling subtrees — all as
// actual datagrams with latency, verified against availability.
#include <gtest/gtest.h>

#include <optional>

#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/hashing.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::proto {
namespace {

using core::FileId;
using core::Pid;

ShardedSwarm::Config cfg_of(int m, int b, std::uint32_t nodes,
                            std::uint64_t seed) {
  ShardedSwarm::Config cfg;
  cfg.m = m;
  cfg.b = b;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.net.base_latency = 0.002;
  cfg.net.jitter = 0.001;
  return cfg;
}

// Gets must succeed from every live node for every file.
void expect_all_available(ShardedSwarm& swarm,
                          const std::vector<FileId>& files) {
  for (const FileId f : files) {
    const Pid r = Pid{util::psi_u64(f.key(), swarm.width())};
    for (std::uint32_t k = 0; k < util::space_size(swarm.width()); ++k) {
      if (!swarm.status().is_live(k)) continue;
      GetResult result;
      swarm.get(f, r, Pid{k}, [&](const GetResult& got) { result = got; });
      swarm.settle();
      EXPECT_TRUE(result.ok) << "file " << f.key() << " from P(" << k << ")";
    }
  }
}

TEST(WireMembership, GracefulLeavePushesInsertedFiles) {
  ShardedSwarm swarm(cfg_of(5, 0, 32, 1));
  std::vector<FileId> files;
  for (std::uint64_t k = 0; k < 8; ++k) {
    files.push_back(swarm.insert_named(0xAA00 + k, Pid{0}));
  }
  swarm.settle();

  // Make every holder leave, one at a time; availability must hold.
  for (const FileId f : files) {
    const Pid holder = Pid{util::psi_u64(f.key(), 5)};
    if (!swarm.status().is_live(holder.value())) continue;
    swarm.depart(holder);
    swarm.settle();
  }
  expect_all_available(swarm, files);
}

TEST(WireMembership, JoinReclaimsFiles) {
  ShardedSwarm swarm(cfg_of(4, 0, 16, 2));
  // The paper's 5.1 example: P(4), P(5) gone, file targeting P(4) sits at
  // P(6); when P(5) rejoins, the file must be pushed back to P(5).
  swarm.depart(Pid{4});
  swarm.depart(Pid{5});
  swarm.settle();

  // Find a key whose ψ is 4.
  std::uint64_t key = 0;
  while (util::psi_u64(key, 4) != 4) ++key;
  const FileId f = swarm.insert_named(key, Pid{0});
  swarm.settle();
  EXPECT_TRUE(swarm.peer(Pid{6}).store().has(f));

  swarm.join(Pid{5});
  swarm.settle();
  EXPECT_TRUE(swarm.peer(Pid{5}).store().has(f));
  EXPECT_FALSE(swarm.peer(Pid{6}).store().has(f));
  EXPECT_EQ(swarm.peer(Pid{5}).store().info(f)->kind,
            core::CopyKind::kInserted);

  GetResult result;
  swarm.get(f, Pid{4}, Pid{8}, [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_TRUE(result.ok);
}

TEST(WireMembership, CrashWithoutFaultToleranceLosesFile) {
  ShardedSwarm swarm(cfg_of(4, 0, 16, 3));
  const FileId f = swarm.insert_named(0xBEEF, Pid{1});
  swarm.settle();
  const Pid holder = Pid{util::psi_u64(0xBEEF, 4)};
  swarm.crash(holder);
  swarm.settle();

  GetResult result;
  const Pid probe = swarm.status().is_live(0) ? Pid{0} : Pid{1};
  swarm.get(f, holder, probe, [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_FALSE(result.ok);
}

TEST(WireMembership, CrashWithFaultToleranceRecovers) {
  ShardedSwarm swarm(cfg_of(6, 2, 64, 4));
  std::vector<FileId> files;
  for (std::uint64_t k = 0; k < 6; ++k) {
    files.push_back(swarm.insert_named(0xCC00 + k, Pid{3}));
  }
  swarm.settle();

  // Crash a chain of nodes; each loss triggers sibling-subtree recovery.
  util::Rng rng(4);
  for (int i = 0; i < 12; ++i) {
    Pid victim{0};
    do {
      victim = Pid{static_cast<std::uint32_t>(rng.bounded(64))};
    } while (!swarm.status().is_live(victim.value()));
    swarm.crash(victim);
    swarm.settle();
  }
  expect_all_available(swarm, files);

  // Each file must again have one inserted copy per non-empty subtree.
  for (const FileId f : files) {
    const core::LookupTree tree(6, Pid{util::psi_u64(f.key(), 6)});
    const core::SubtreeView view(tree, 2);
    for (std::uint32_t t = 0; t < 4; ++t) {
      const auto holder = view.insertion_target(t, swarm.status());
      if (!holder.has_value()) continue;
      EXPECT_TRUE(swarm.peer(*holder).store().has(f))
          << "file " << f.key() << " subtree " << t;
    }
  }
}

TEST(WireMembership, RollingRestartAtProtocolLevel) {
  ShardedSwarm swarm(cfg_of(5, 1, 32, 5));
  std::vector<FileId> files;
  for (std::uint64_t k = 0; k < 8; ++k) {
    files.push_back(swarm.insert_named(0xDD00 + k, Pid{2}));
  }
  swarm.settle();

  for (std::uint32_t p = 0; p < 32; ++p) {
    swarm.depart(Pid{p});
    swarm.settle();
    swarm.join(Pid{p});
    swarm.settle();
  }
  expect_all_available(swarm, files);
}

TEST(WireMembership, RecoveryCostsOnePushPerLostCopy) {
  ShardedSwarm swarm(cfg_of(6, 2, 64, 6));
  [[maybe_unused]] const FileId f = swarm.insert_named(0xEE01, Pid{0});
  swarm.settle();

  const core::LookupTree tree(6, Pid{util::psi_u64(0xEE01, 6)});
  const core::SubtreeView view(tree, 2);
  const std::vector<Pid> holders = view.insertion_targets(swarm.status());
  ASSERT_EQ(holders.size(), 4u);

  const std::int64_t before = swarm.messages_sent();
  swarm.crash(holders[0]);
  swarm.settle();
  const std::int64_t spent = swarm.messages_sent() - before;
  // Status broadcast (63 surviving peers) + one kFilePush + its ack.
  EXPECT_EQ(spent, 65);
}

TEST(WireMembership, RapidCrashRejoinWithInflightTimersIsSafe) {
  // Regression: a peer that crashes and rejoins *without* the event queue
  // draining in between must not leave engine timers pointing at a
  // destroyed object. Peers are reused across rejoin cycles; stale push
  // timers find their pending entries gone and no-op.
  ShardedSwarm::Config cfg = cfg_of(5, 1, 32, 11);
  cfg.net.drop_probability = 0.6;  // force push retransmission timers
  ShardedSwarm swarm(cfg);
  std::vector<FileId> files;
  for (std::uint64_t k = 0; k < 6; ++k) {
    files.push_back(swarm.insert_named(0xAB30 + k, Pid{0}));
  }
  // Interleave crashes and rejoins with NO settle(): timers stay queued.
  for (int round = 0; round < 6; ++round) {
    const Pid victim{static_cast<std::uint32_t>(5 + round)};
    if (swarm.status().is_live(victim.value())) swarm.crash(victim);
    swarm.engine(0).run_until(swarm.engine(0).now() + 0.01);  // partial drain
    swarm.join(victim);
    swarm.engine(0).run_until(swarm.engine(0).now() + 0.01);
  }
  swarm.settle();  // every stale timer fires against live, reused objects
  SUCCEED();
}

TEST(WireMembership, PushesSurvivePacketLoss) {
  // File transfers are acked and retried: a graceful leave on a lossy
  // network must still deliver every inserted file to its new holder.
  ShardedSwarm::Config cfg = cfg_of(5, 0, 32, 9);
  cfg.net.drop_probability = 0.4;
  ShardedSwarm swarm(cfg);
  std::vector<FileId> files;
  for (std::uint64_t k = 0; k < 8; ++k) {
    files.push_back(swarm.insert_named(0xEE10 + k, Pid{0}));
  }
  // Client retries cover the lossy inserts.
  swarm.settle();

  for (const FileId f : files) {
    const Pid holder = Pid{util::psi_u64(f.key(), 5)};
    if (!swarm.status().is_live(holder.value())) continue;
    swarm.depart(holder);
    swarm.settle();
  }
  // With p = 0.4 per datagram and 6 transmissions per push, the chance a
  // transfer dies is 0.4^6 ≈ 0.4%; the seed keeps this deterministic.
  int held = 0;
  for (const FileId f : files) {
    for (std::uint32_t p = 0; p < 32; ++p) {
      if (swarm.status().is_live(p) &&
          swarm.peer(Pid{p}).store().has(f)) {
        ++held;
        break;
      }
    }
  }
  EXPECT_EQ(held, static_cast<int>(files.size()));
}

TEST(WireMembership, DuplicatePushesAreIdempotent) {
  // Force retransmissions by dropping ~half the datagrams: the new holder
  // may receive the same push several times; exactly one inserted copy
  // must result, at the pushed version.
  ShardedSwarm::Config cfg = cfg_of(4, 0, 16, 10);
  cfg.net.drop_probability = 0.5;
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0xEE99, Pid{0});
  swarm.settle();
  const Pid holder = Pid{util::psi_u64(0xEE99, 4)};
  if (swarm.status().is_live(holder.value()) &&
      swarm.peer(holder).store().has(f)) {
    swarm.depart(holder);
    swarm.settle();
    int copies = 0;
    for (std::uint32_t p = 0; p < 16; ++p) {
      if (swarm.status().is_live(p) && swarm.peer(Pid{p}).store().has(f)) {
        ++copies;
      }
    }
    EXPECT_EQ(copies, 1);
  }
}

// -- PID records -------------------------------------------------------
//
// Every PID's Peer and Client live in a fixed record of one array, built
// when the PID first joins and destroyed with the swarm. Run at S = 1
// and at S = 4, where each shard's worker builds its own records.

TEST(SwarmRecords, AddressesSurviveCrashRestartAndDepartJoin) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedSwarm::Config cfg = cfg_of(5, 1, 32, 3);
    cfg.shards = shards;
    ShardedSwarm swarm(cfg);
    const Pid crashed{7};
    const Pid departed{26};
    Peer* const crashed_peer = &swarm.peer(crashed);
    Client* const crashed_client = &swarm.client(crashed);
    Peer* const departed_peer = &swarm.peer(departed);
    Client* const departed_client = &swarm.client(departed);
    const FileId f = swarm.insert_named(0x5A11, Pid{0});
    swarm.settle();

    swarm.crash(crashed);
    swarm.settle();
    swarm.restart(crashed);
    swarm.settle();
    swarm.depart(departed);
    swarm.settle();
    ASSERT_EQ(swarm.join(departed), departed);
    swarm.settle();

    EXPECT_EQ(&swarm.peer(crashed), crashed_peer) << "S=" << shards;
    EXPECT_EQ(&swarm.client(crashed), crashed_client) << "S=" << shards;
    EXPECT_EQ(&swarm.peer(departed), departed_peer) << "S=" << shards;
    EXPECT_EQ(&swarm.client(departed), departed_client) << "S=" << shards;
    EXPECT_EQ(swarm.peer(departed).pid(), departed);
    expect_all_available(swarm, {f});
  }
}

TEST(SwarmRecords, JoinBuildsARecordThatWasNeverConstructed) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedSwarm::Config cfg = cfg_of(5, 0, 20, 4);
    cfg.shards = shards;
    ShardedSwarm swarm(cfg);
    const FileId f = swarm.insert_named(0xC0DE, Pid{2});
    swarm.settle();
    const Pid fresh = swarm.join(Pid{27});  // 20..31 never had a peer
    swarm.settle();
    ASSERT_EQ(fresh, Pid{27});
    EXPECT_EQ(swarm.peer(fresh).pid(), fresh);
    EXPECT_TRUE(swarm.status().is_live(fresh.value()));
    GetResult got;
    swarm.get(f, Pid{util::psi_u64(f.key(), 5)}, fresh,
              [&got](const GetResult& r) { got = r; });
    swarm.settle();
    EXPECT_TRUE(got.ok) << "S=" << shards;
    swarm.reannounce();  // covers the new record, skips the never-built
    swarm.settle();
    expect_all_available(swarm, {f});
  }
}

TEST(SwarmRecords, DestructionReleasesEveryStatusSnapshot) {
  // Construction hands every peer one shared status snapshot. Holding
  // one more handle on it across the swarm's destruction shows whether
  // every peer let go: the holder must end as the sole owner, which
  // CowStatus reveals by mutating in place instead of cloning.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedSwarm::Config cfg = cfg_of(6, 0, 48, 5);
    cfg.shards = shards;
    std::optional<util::CowStatus> held;
    {
      ShardedSwarm swarm(cfg);
      swarm.join(Pid{50});  // one record built after construction
      swarm.settle();
      held = swarm.peer(Pid{3}).liveness().snapshot();
    }
    const util::StatusWord* before = &held->read();
    EXPECT_EQ(&held->mutate(), before) << "S=" << shards;
  }
}

}  // namespace
}  // namespace lesslog::proto
