// Randomized whole-system invariant checking: long mixed workloads of
// inserts, gets, replications, updates, joins, leaves, and crashes, with
// the LessLog integrity invariants re-verified after every phase.
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/system.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog {
namespace {

using core::FileId;
using core::Pid;

// gtest names each case after the raw bytes of its parameter, padding
// included. The padding is spelled out and zeroed so the names do not pick
// up stack garbage and stay the same from build to build.
struct Scenario {
  int m;
  int b;
  std::uint64_t seed;
  std::uint32_t initial_nodes;
  std::uint32_t files;
  int churn_steps;
  std::uint32_t pad0 = 0;
};
static_assert(std::has_unique_object_representations_v<Scenario>);

class InvariantSweep : public ::testing::TestWithParam<Scenario> {
 protected:
  // Invariant 1: the holder bookkeeping matches node storage exactly.
  static void check_holder_consistency(const core::System& sys,
                                       const std::vector<FileId>& files) {
    for (const FileId f : files) {
      std::set<Pid> from_meta;
      for (const Pid p : sys.holders(f)) {
        EXPECT_TRUE(sys.is_live(p));
        EXPECT_TRUE(sys.node(p).store().has(f));
        from_meta.insert(p);
      }
      for (std::uint32_t p = 0; p < util::space_size(sys.width()); ++p) {
        if (sys.node(Pid{p}).store().has(f)) {
          EXPECT_TRUE(from_meta.contains(Pid{p}))
              << "orphan copy of file at P(" << p << ")";
        }
      }
    }
  }

  // Invariant 2: every non-lost file has an inserted copy at each
  // authoritative holder (per subtree).
  static void check_authoritative_placement(
      const core::System& sys, const std::vector<FileId>& files) {
    for (const FileId f : files) {
      if (!sys.file_known(f)) continue;
      const auto lost = sys.lost_files();
      if (std::find(lost.begin(), lost.end(), f) != lost.end()) continue;
      const core::LookupTree tree = sys.tree_of(f);
      const core::SubtreeView view(tree, sys.fault_bits());
      for (const Pid holder : view.insertion_targets(sys.status())) {
        const auto info = sys.node(holder).store().info(f);
        ASSERT_TRUE(info.has_value())
            << "authoritative holder P(" << holder.value()
            << ") lacks a copy";
        EXPECT_EQ(info->kind, core::CopyKind::kInserted);
      }
    }
  }

  // Invariant 3: every live node can fetch every non-lost file within the
  // O(log N) bound.
  static void check_availability(core::System& sys,
                                 const std::vector<FileId>& files) {
    const auto lost = sys.lost_files();
    for (const FileId f : files) {
      if (std::find(lost.begin(), lost.end(), f) != lost.end()) continue;
      for (std::uint32_t k = 0; k < util::space_size(sys.width()); ++k) {
        if (!sys.is_live(Pid{k})) continue;
        const auto got = sys.get(f, Pid{k});
        EXPECT_TRUE(got.ok()) << "fault at P(" << k << ")";
        EXPECT_LE(got.route.hops(),
                  sys.width() + 1 + (1 << sys.fault_bits()));
      }
    }
  }

  // Invariant 4: after an update, every holder stores the new version.
  static void check_update_coherence(core::System& sys,
                                     const std::vector<FileId>& files) {
    const auto lost = sys.lost_files();
    for (const FileId f : files) {
      if (std::find(lost.begin(), lost.end(), f) != lost.end()) continue;
      sys.update(f);
      for (const Pid h : sys.holders(f)) {
        EXPECT_EQ(sys.node(h).store().info(f)->version, sys.version_of(f))
            << "stale copy at P(" << h.value() << ")";
      }
    }
  }
};

TEST_P(InvariantSweep, MixedOperationsPreserveAllInvariants) {
  const Scenario sc = GetParam();
  util::Rng rng(sc.seed);
  core::System sys({.m = sc.m, .b = sc.b, .seed = sc.seed});
  sys.bootstrap(sc.initial_nodes);

  std::vector<FileId> files;
  for (std::uint32_t i = 0; i < sc.files; ++i) {
    files.push_back(sys.insert_key(sc.seed * 1000 + i));
  }

  const auto random_live = [&]() -> Pid {
    const std::vector<std::uint32_t> live = sys.status().live_pids();
    return Pid{live[rng.bounded(live.size())]};
  };

  for (int step = 0; step < sc.churn_steps; ++step) {
    switch (rng.bounded(6)) {
      case 0: {  // join
        if (sys.live_count() < sys.status().capacity()) sys.join();
        break;
      }
      case 1: {  // graceful leave
        if (sys.live_count() > 4) sys.leave(random_live());
        break;
      }
      case 2: {  // crash
        if (sys.live_count() > 4) sys.fail(random_live());
        break;
      }
      case 3: {  // replicate a random file at one of its holders
        const FileId f = files[rng.bounded(files.size())];
        const std::vector<Pid> holders = sys.holders(f);
        if (!holders.empty()) {
          sys.replicate(f, holders[rng.bounded(holders.size())]);
        }
        break;
      }
      case 4: {  // a burst of gets
        const FileId f = files[rng.bounded(files.size())];
        for (int i = 0; i < 4; ++i) sys.get(f, random_live());
        break;
      }
      case 5: {  // update
        sys.update(files[rng.bounded(files.size())]);
        break;
      }
    }

    if (step % 8 == 7) {
      check_holder_consistency(sys, files);
      check_authoritative_placement(sys, files);
    }
  }

  check_holder_consistency(sys, files);
  check_authoritative_placement(sys, files);
  check_availability(sys, files);
  check_update_coherence(sys, files);

  // With b > 0 and bounded concurrent failures, nothing may be lost.
  if (sc.b > 0) {
    EXPECT_TRUE(sys.lost_files().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, InvariantSweep,
    ::testing::Values(Scenario{4, 0, 1, 16, 4, 60},
                      Scenario{5, 0, 2, 28, 8, 80},
                      Scenario{5, 1, 3, 30, 8, 80},
                      Scenario{6, 0, 4, 64, 12, 100},
                      Scenario{6, 2, 5, 50, 12, 100},
                      Scenario{7, 0, 6, 100, 16, 80},
                      Scenario{7, 3, 7, 120, 8, 80},
                      Scenario{8, 2, 8, 200, 16, 60},
                      Scenario{10, 0, 9, 1024, 8, 40},
                      Scenario{10, 2, 10, 900, 8, 40}));

}  // namespace
}  // namespace lesslog
