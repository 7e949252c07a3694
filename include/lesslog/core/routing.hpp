// Request routing (the GETFILE walk).
//
// A request received at P(k) for a file with target P(r) climbs the lookup
// tree of P(r) toward the root, stopping at the first node that stores a
// copy. In the advanced model the parent function FP^r_k returns the first
// *alive* ancestor, and when the walk fails with a dead root the request is
// redirected to FINDLIVENODE(r, r) — the live node with the most offspring,
// which is where ADVANCEDINSERTFILE placed the original copy.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "lesslog/core/find_live_node.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/util/liveness_view.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::core {

/// Predicate: does this node currently store a copy of the file being
/// routed? Callers bind their storage layer here.
using HasCopyFn = std::function<bool(Pid)>;

/// FP^r_k — the first alive ancestor of P(k) in `tree` (skipping dead
/// ancestors), or nullopt when every remaining ancestor up to and including
/// the root is dead. Precondition: k is in the ID space.
[[nodiscard]] std::optional<Pid> first_alive_ancestor(
    const LookupTree& tree, Pid k, const util::StatusWord& live);

/// Outcome of a full GETFILE route.
struct RouteResult {
  /// Nodes visited, in order, starting at the requester. When the walk
  /// fails at a dead root, the final element is the FINDLIVENODE(r, r)
  /// fallback target.
  std::vector<Pid> path;
  /// Node that served the request, if any copy was found.
  std::optional<Pid> served_by;
  /// True when the FINDLIVENODE fallback jump was taken.
  bool used_fallback = false;

  /// Messages forwarded = path length minus the requester itself.
  [[nodiscard]] int hops() const noexcept {
    return static_cast<int>(path.size()) - 1;
  }
};

/// Full GETFILE in the advanced model: walk the ancestor chain from P(k),
/// serving at the first node with a copy; if the chain ends without a copy
/// and the root is dead, jump to FINDLIVENODE(r, r). `has_copy` is queried
/// once per visited node. Requests fault (served_by == nullopt) only when
/// no reachable node stores the file.
[[nodiscard]] RouteResult route_get(const LookupTree& tree, Pid k,
                                    const util::StatusWord& live,
                                    const HasCopyFn& has_copy);

/// Flat next-alive-ancestor table — the allocation-free routing fast path.
///
/// For every PID p (live or dead), `next[p]` holds FP^r_p, the first alive
/// ancestor of P(p) in the tree, or kNone when every ancestor up to and
/// including the root is dead. Built once per (tree, liveness) pair in
/// O(2^m); a GETFILE walk over the table is then a pointer-free integer
/// chase with no per-hop dead-node scans, no heap allocation, and no
/// std::function indirection. Liveness changes invalidate the table.
struct AncestorTable {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::vector<std::uint32_t> next;  ///< pid -> first alive ancestor pid
  Pid root{0};
  bool root_live = false;
  /// FINDLIVENODE(r, r) — where the walk redirects when the root is dead;
  /// kNone when no live node exists at all.
  std::uint32_t fallback_holder = kNone;
};

/// Builds the flat table for `tree` under `live`.
[[nodiscard]] AncestorTable build_ancestor_table(const LookupTree& tree,
                                                 const util::StatusWord& live);

// LivenessView seam: routing under a node's local belief. A walk over a
// stale view can visit nodes that are actually dead (the simulator's wire
// layer then drops the hop); it never visits a node the view believes dead.

[[nodiscard]] inline std::optional<Pid> first_alive_ancestor(
    const LookupTree& tree, Pid k, const util::LivenessView& view) {
  return first_alive_ancestor(tree, k, view.word());
}

[[nodiscard]] inline RouteResult route_get(const LookupTree& tree, Pid k,
                                           const util::LivenessView& view,
                                           const HasCopyFn& has_copy) {
  return route_get(tree, k, view.word(), has_copy);
}

[[nodiscard]] inline AncestorTable build_ancestor_table(
    const LookupTree& tree, const util::LivenessView& view) {
  return build_ancestor_table(tree, view.word());
}

/// GETFILE over the flat table; semantically identical to
/// route_get(tree, k, live, has_copy) for the pair the table was built
/// from (a test asserts the equivalence), but with a templated copy
/// predicate and zero allocations. `forward` is invoked once for every
/// node that passes the request on — exactly the nodes RouteResult counts
/// before the server, or the whole path on a fault. Returns the serving
/// node, or nullopt on a fault; on a served route the number of `forward`
/// calls equals RouteResult::hops().
template <typename HasCopyT, typename ForwardT>
[[nodiscard]] std::optional<Pid> route_get(const AncestorTable& table, Pid k,
                                           const HasCopyT& has_copy,
                                           ForwardT&& forward) {
  std::uint32_t cur = k.value();
  while (true) {
    if (has_copy(Pid{cur})) return Pid{cur};
    forward(Pid{cur});
    const std::uint32_t up = table.next[cur];
    if (up == AncestorTable::kNone) break;
    cur = up;
  }
  if (!table.root_live && table.fallback_holder != AncestorTable::kNone &&
      table.fallback_holder != cur) {
    const Pid holder{table.fallback_holder};
    if (has_copy(holder)) return holder;
    forward(holder);
  }
  return std::nullopt;
}

}  // namespace lesslog::core
