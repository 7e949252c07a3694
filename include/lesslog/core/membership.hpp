// Self-organized membership (Section 5): the pure decision logic for
// joining, leaving, and failing nodes.
//
// The central question every protocol answers is "which live node is the
// authoritative holder of an inserted file right now?" — per subtree, it is
// the live node with the largest (subtree) VID, i.e. the (modified)
// FINDLIVENODE target. These helpers compute holder assignments before and
// after a membership change and derive the file movements required to keep
// LessLog's integrity invariant: every inserted file is stored exactly at
// its current authoritative holder(s).
//
// System (system.hpp) applies these plans to actual storage; keeping the
// planning pure makes the Section 5 logic directly unit-testable.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::core {

/// One required relocation of an inserted copy.
struct HolderChange {
  std::uint32_t sub_id = 0;
  /// Previous holder; nullopt when the subtree had no live node before
  /// (the copy must be recovered from a sibling subtree).
  std::optional<Pid> from;
  /// New holder; nullopt when the subtree lost its last live node (the
  /// copy has no home until a node joins).
  std::optional<Pid> to;
};

/// Diffs per-subtree holder assignments across a membership change. Entries
/// are emitted only for subtrees whose holder changed.
[[nodiscard]] std::vector<HolderChange> diff_holders(
    const SubtreeView& view, const util::StatusWord& before,
    const util::StatusWord& after);

/// Cost (in point-to-point messages) of broadcasting a status-word change
/// to every live node — what join/leave/fail each pay once. The registering
/// node itself does not need a message.
[[nodiscard]] std::int64_t broadcast_cost(const util::StatusWord& live);

}  // namespace lesslog::core
