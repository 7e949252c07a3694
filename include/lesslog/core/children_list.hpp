// Children lists — the replica placement order.
//
// Basic model (all nodes live): the children of P(k) in the tree of P(r),
// sorted by descending VID (= descending offspring count, Property 3).
//
// Advanced model (Section 3): dead children are transparently replaced by
// *their* children, recursively, and the final list of live nodes is sorted
// by descending VID. Worked example from the paper (14-node system, m = 4,
// P(0) and P(5) dead): the children list of P(4) in its own tree is
// (P(6), P(7), P(1), P(12), P(13), P(8)).
#pragma once

#include <functional>
#include <vector>

#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::core {

/// Generic advanced-model expansion used by both the full lookup tree and
/// the fault-tolerant subtree views: children of `v` in `vt`, with each dead
/// child replaced by its recursively expanded children, sorted by
/// descending VID. Liveness of a VID is resolved through `pid_of`.
[[nodiscard]] std::vector<Vid> expand_children_list(
    const VirtualTree& vt, Vid v,
    const std::function<Pid(Vid)>& pid_of, const util::StatusWord& live);

/// Advanced-model children list of P(k) in `tree`, honoring liveness:
/// every live child, plus — in place of each dead child — that child's own
/// (recursively expanded) children list; result sorted by descending VID.
/// With all nodes live this degenerates to tree.children(k).
[[nodiscard]] std::vector<Pid> children_list(const LookupTree& tree, Pid k,
                                             const util::StatusWord& live);

}  // namespace lesslog::core
