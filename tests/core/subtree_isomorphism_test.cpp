// Structural soundness of the fault-tolerant decomposition: every subtree
// of a SubtreeView must behave exactly like an independent (m-b)-bit
// lookup tree — children lists, FINDLIVENODE, and routing all included.
// The isomorphism maps subtree VIDs of subtree `t` to the standalone
// tree's VIDs one-to-one.
#include <gtest/gtest.h>

#include <type_traits>

#include "lesslog/core/children_list.hpp"
#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/find_live_node.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::core {
namespace {

// gtest names each case after the raw bytes of its parameter, padding
// included. The padding is spelled out and zeroed so the names do not pick
// up stack garbage and stay the same from build to build.
struct IsoCase {
  int m;
  int b;
  std::uint32_t root;
  std::uint32_t pad0 = 0;
  std::uint64_t seed;
  std::uint32_t dead;
  std::uint32_t pad1 = 0;
};
static_assert(std::has_unique_object_representations_v<IsoCase>);

class SubtreeIsomorphism : public ::testing::TestWithParam<IsoCase> {
 protected:
  void SetUp() override {
    const IsoCase& c = GetParam();
    tree_.emplace(c.m, Pid{c.root});
    view_.emplace(*tree_, c.b);
    live_.emplace(c.m, util::space_size(c.m));
    util::Rng rng(c.seed);
    for (const std::uint32_t d :
         rng.sample_indices(util::space_size(c.m), c.dead)) {
      live_->set_dead(d);
    }
  }

  // The standalone (m-b)-bit "shadow" world of subtree `t`: shadow PID x
  // corresponds to the full-space node at pid_at(vid, t) where vid is the
  // shadow tree's vid of x. We choose the shadow root so that shadow VIDs
  // equal subtree VIDs: shadow root PID 2^(m-b)-1 makes complement 0, so
  // shadow VID == shadow PID; we then identify shadow PID with sub-VID.
  struct Shadow {
    LookupTree tree;
    util::StatusWord live;
  };

  Shadow make_shadow(std::uint32_t t) const {
    const int sub_m = view_->subtree_width();
    Shadow shadow{LookupTree(sub_m, Pid{util::mask_of(sub_m)}),
                  util::StatusWord(sub_m)};
    for (std::uint32_t sv = 0; sv < util::space_size(sub_m); ++sv) {
      if (live_->is_live(view_->pid_at(sv, t).value())) {
        shadow.live.set_live(sv);
      }
    }
    return shadow;
  }

  std::optional<LookupTree> tree_;
  std::optional<SubtreeView> view_;
  std::optional<util::StatusWord> live_;
};

TEST_P(SubtreeIsomorphism, ChildrenListsMap) {
  for (std::uint32_t t = 0; t < view_->subtree_count(); ++t) {
    const Shadow shadow = make_shadow(t);
    for (std::uint32_t sv = 0; sv < util::space_size(view_->subtree_width());
         ++sv) {
      const Pid full = view_->pid_at(sv, t);
      const std::vector<Pid> via_view = view_->children_list(full, *live_);
      const std::vector<Pid> via_shadow =
          children_list(shadow.tree, Pid{sv}, shadow.live);
      ASSERT_EQ(via_view.size(), via_shadow.size())
          << "t=" << t << " sv=" << sv;
      for (std::size_t i = 0; i < via_view.size(); ++i) {
        // Shadow PIDs are sub-VIDs (complement 0): map back and compare.
        EXPECT_EQ(via_view[i],
                  view_->pid_at(via_shadow[i].value(), t));
      }
    }
  }
}

TEST_P(SubtreeIsomorphism, InsertionTargetsMap) {
  for (std::uint32_t t = 0; t < view_->subtree_count(); ++t) {
    const Shadow shadow = make_shadow(t);
    const std::optional<Pid> via_view = view_->insertion_target(t, *live_);
    const std::optional<Pid> via_shadow =
        insertion_target(shadow.tree, shadow.live);
    if (!via_shadow.has_value()) {
      EXPECT_EQ(via_view, std::nullopt);
      continue;
    }
    ASSERT_TRUE(via_view.has_value());
    EXPECT_EQ(*via_view, view_->pid_at(via_shadow->value(), t));
  }
}

TEST_P(SubtreeIsomorphism, AncestorWalksMap) {
  for (std::uint32_t t = 0; t < view_->subtree_count(); ++t) {
    const Shadow shadow = make_shadow(t);
    for (std::uint32_t sv = 0; sv < util::space_size(view_->subtree_width());
         ++sv) {
      const Pid full = view_->pid_at(sv, t);
      const std::optional<Pid> via_view =
          view_->first_alive_subtree_ancestor(full, *live_);
      const std::optional<Pid> via_shadow =
          first_alive_ancestor(shadow.tree, Pid{sv}, shadow.live);
      if (!via_shadow.has_value()) {
        EXPECT_EQ(via_view, std::nullopt) << "t=" << t << " sv=" << sv;
      } else {
        ASSERT_TRUE(via_view.has_value());
        EXPECT_EQ(*via_view, view_->pid_at(via_shadow->value(), t));
      }
    }
  }
}

TEST_P(SubtreeIsomorphism, LiveVidAboveMaps) {
  for (std::uint32_t t = 0; t < view_->subtree_count(); ++t) {
    const Shadow shadow = make_shadow(t);
    for (std::uint32_t sv = 0; sv < util::space_size(view_->subtree_width());
         ++sv) {
      const Pid full = view_->pid_at(sv, t);
      EXPECT_EQ(view_->live_vid_above(full, *live_),
                live_vid_above(shadow.tree, Pid{sv}, shadow.live))
          << "t=" << t << " sv=" << sv;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SubtreeIsomorphism,
    ::testing::Values(
        IsoCase{.m = 4, .b = 1, .root = 4, .seed = 1, .dead = 0},
        IsoCase{.m = 4, .b = 2, .root = 4, .seed = 2, .dead = 4},
        IsoCase{.m = 5, .b = 1, .root = 19, .seed = 3, .dead = 8},
        IsoCase{.m = 5, .b = 2, .root = 19, .seed = 4, .dead = 10},
        IsoCase{.m = 6, .b = 2, .root = 42, .seed = 5, .dead = 20},
        IsoCase{.m = 6, .b = 3, .root = 42, .seed = 6, .dead = 16},
        IsoCase{.m = 7, .b = 3, .root = 100, .seed = 7, .dead = 40},
        IsoCase{.m = 8, .b = 4, .root = 200, .seed = 8, .dead = 64}));

}  // namespace
}  // namespace lesslog::core
