#include "lesslog/core/system.hpp"

#include <gtest/gtest.h>

#include <set>

namespace lesslog::core {
namespace {

TEST(System, BootstrapSetsLiveness) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(14);
  EXPECT_EQ(sys.live_count(), 14u);
  EXPECT_TRUE(sys.is_live(Pid{0}));
  EXPECT_FALSE(sys.is_live(Pid{14}));
}

TEST(System, InsertPlacesSingleCopyAtTarget) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  EXPECT_EQ(sys.target_of(f), Pid{4});
  EXPECT_EQ(sys.holders(f), std::vector<Pid>{Pid{4}});
  EXPECT_TRUE(sys.node(Pid{4}).store().has(f));
}

TEST(System, InsertOnDeadTargetUsesStandIn) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  sys.fail(Pid{4});
  sys.fail(Pid{5});
  const FileId f = sys.insert_at(Pid{4});
  EXPECT_EQ(sys.holders(f), std::vector<Pid>{Pid{6}});
}

TEST(System, InsertByNameHashesTarget) {
  System sys({.m = 10, .b = 0, .seed = 1});
  sys.bootstrap(1024);
  const FileId f = sys.insert("movies/clip.mpg");
  EXPECT_EQ(sys.holders(f).size(), 1u);
  EXPECT_EQ(sys.holders(f).front(), sys.target_of(f));
}

TEST(System, GetRoutesPaperExample) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  const System::GetOutcome got = sys.get(f, Pid{8});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.route.path, (std::vector<Pid>{Pid{8}, Pid{0}, Pid{4}}));
  EXPECT_EQ(sys.node(Pid{4}).served(), 1u);
  EXPECT_EQ(sys.node(Pid{8}).forwarded(), 1u);
  EXPECT_EQ(sys.node(Pid{0}).forwarded(), 1u);
  EXPECT_EQ(sys.lookup_messages(), 2);
}

TEST(System, ReplicateShedsToLargestChild) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  const std::optional<Pid> replica = sys.replicate(f, Pid{4});
  EXPECT_EQ(replica, Pid{5});
  EXPECT_EQ(sys.holders(f), (std::vector<Pid>{Pid{4}, Pid{5}}));
  EXPECT_EQ(sys.node(Pid{5}).store().info(f)->kind, CopyKind::kReplica);
  // Requests from P(5)'s subtree are now served by the replica.
  const System::GetOutcome got = sys.get(f, Pid{13});
  EXPECT_EQ(got.route.served_by, Pid{5});
}

TEST(System, UpdatePropagatesVersionToAllCopies) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  sys.replicate(f, Pid{4});
  sys.replicate(f, Pid{4});
  const System::UpdateOutcome out = sys.update(f);
  EXPECT_EQ(out.new_version, 1u);
  EXPECT_EQ(out.copies_updated, 3);
  for (const Pid h : sys.holders(f)) {
    EXPECT_EQ(sys.node(h).store().info(f)->version, 1u);
  }
  EXPECT_EQ(sys.version_of(f), 1u);
}

TEST(System, JoinTakesBackTargetRole) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  sys.leave(Pid{4});
  sys.leave(Pid{5});
  const FileId f = sys.insert_at(Pid{4});
  EXPECT_EQ(sys.holders(f), std::vector<Pid>{Pid{6}});
  sys.join(Pid{5});
  EXPECT_EQ(sys.holders(f), std::vector<Pid>{Pid{5}});
  EXPECT_EQ(sys.node(Pid{5}).store().info(f)->kind, CopyKind::kInserted);
  EXPECT_FALSE(sys.node(Pid{6}).store().has(f));
  sys.join(Pid{4});
  EXPECT_EQ(sys.holders(f), std::vector<Pid>{Pid{4}});
}

TEST(System, LeaveRehomesInsertedAndDropsReplicas) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  sys.replicate(f, Pid{4});  // replica at P(5)
  sys.leave(Pid{5});         // replica discarded
  EXPECT_EQ(sys.holders(f), std::vector<Pid>{Pid{4}});
  sys.leave(Pid{4});         // inserted copy must move
  ASSERT_EQ(sys.holders(f).size(), 1u);
  const Pid new_holder = sys.holders(f).front();
  EXPECT_NE(new_holder, Pid{4});
  EXPECT_TRUE(sys.is_live(new_holder));
  EXPECT_EQ(sys.node(new_holder).store().info(f)->kind, CopyKind::kInserted);
  EXPECT_TRUE(sys.lost_files().empty());
}

TEST(System, FailWithoutReplicasLosesFile) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  sys.fail(Pid{4});
  EXPECT_EQ(sys.lost_files(), std::vector<FileId>{f});
  EXPECT_TRUE(sys.holders(f).empty());
  const System::GetOutcome got = sys.get(f, Pid{8});
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(sys.faults(), 1);
}

TEST(System, FailWithReplicaPromotesSurvivor) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  sys.replicate(f, Pid{4});  // replica at P(5)
  sys.fail(Pid{4});
  EXPECT_TRUE(sys.lost_files().empty());
  // P(5) is the new largest live VID; it must now hold an inserted copy.
  const std::vector<Pid> holders = sys.holders(f);
  ASSERT_FALSE(holders.empty());
  EXPECT_EQ(sys.node(Pid{5}).store().info(f)->kind, CopyKind::kInserted);
  EXPECT_TRUE(sys.get(f, Pid{8}).ok());
}

TEST(System, FaultTolerantInsertStores2PowBCopies) {
  System sys({.m = 4, .b = 2, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  EXPECT_EQ(sys.holders(f).size(), 4u);
  for (const Pid h : sys.holders(f)) {
    EXPECT_EQ(sys.node(h).store().info(f)->kind, CopyKind::kInserted);
  }
}

TEST(System, FaultTolerantSurvivesHolderCrashes) {
  System sys({.m = 5, .b = 2, .seed = 1});
  sys.bootstrap(32);
  const FileId f = sys.insert_at(Pid{9});
  std::vector<Pid> holders = sys.holders(f);
  ASSERT_EQ(holders.size(), 4u);
  // Crash three of the four holders; recovery must restore 4 copies and
  // requests must keep succeeding throughout.
  for (int i = 0; i < 3; ++i) {
    sys.fail(holders[static_cast<std::size_t>(i)]);
    for (std::uint32_t k = 0; k < 32; ++k) {
      if (!sys.is_live(Pid{k})) continue;
      EXPECT_TRUE(sys.get(f, Pid{k}).ok()) << "after crash " << i;
    }
  }
  EXPECT_TRUE(sys.lost_files().empty());
  EXPECT_EQ(sys.holders(f).size(), 4u);  // recovered per subtree
}

TEST(System, FaultTolerantUpdateReachesEverySubtree) {
  System sys({.m = 5, .b = 2, .seed = 1});
  sys.bootstrap(32);
  const FileId f = sys.insert_at(Pid{9});
  sys.replicate(f, sys.holders(f).front());
  const System::UpdateOutcome out = sys.update(f);
  EXPECT_EQ(out.copies_updated, 5);
  for (const Pid h : sys.holders(f)) {
    EXPECT_EQ(sys.node(h).store().info(f)->version, 1u);
  }
}

TEST(System, MaintenanceMessagesAccumulate) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(8);
  const std::int64_t before = sys.maintenance_messages();
  sys.join();
  EXPECT_GT(sys.maintenance_messages(), before);
}

TEST(System, JoinPicksLowestDeadPidByDefault) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(6);
  EXPECT_EQ(sys.join(), Pid{6});
  EXPECT_TRUE(sys.is_live(Pid{6}));
}

TEST(System, ResetCountersClearsServiceStats) {
  System sys({.m = 4, .b = 0, .seed = 1});
  sys.bootstrap(16);
  const FileId f = sys.insert_at(Pid{4});
  sys.get(f, Pid{8});
  sys.reset_counters();
  EXPECT_EQ(sys.node(Pid{4}).served(), 0u);
  EXPECT_EQ(sys.node(Pid{8}).forwarded(), 0u);
}

TEST(System, ManyFilesSpreadAcrossTargets) {
  System sys({.m = 6, .b = 0, .seed = 1});
  sys.bootstrap(64);
  std::set<std::uint32_t> targets;
  for (std::uint64_t k = 0; k < 64; ++k) {
    const FileId f = sys.insert_key(k);
    targets.insert(sys.target_of(f).value());
    EXPECT_TRUE(sys.get(f, Pid{static_cast<std::uint32_t>(k)}).ok());
  }
  // ψ should spread 64 files over clearly more than a handful of targets.
  EXPECT_GT(targets.size(), 30u);
}

}  // namespace
}  // namespace lesslog::core
