#include "lesslog/core/children_list.hpp"

#include <algorithm>

namespace lesslog::core {

namespace {

// Depth-first expansion: live children are collected; dead children are
// replaced by their own children, recursively. A dead leaf contributes
// nothing. The recursion is bounded by the subtree size of the start node.
void expand(const VirtualTree& vt, Vid v,
            const std::function<Pid(Vid)>& pid_of,
            const util::StatusWord& live, std::vector<Vid>& out) {
  for (Vid child : vt.children(v)) {
    if (live.is_live(pid_of(child).value())) {
      out.push_back(child);
    } else {
      expand(vt, child, pid_of, live, out);
    }
  }
}

}  // namespace

std::vector<Vid> expand_children_list(const VirtualTree& vt, Vid v,
                                      const std::function<Pid(Vid)>& pid_of,
                                      const util::StatusWord& live) {
  std::vector<Vid> vids;
  expand(vt, v, pid_of, live, vids);
  // The paper sorts the final list "by the VID" — descending, so the node
  // with the most offspring comes first (Property 3).
  std::sort(vids.begin(), vids.end(),
            [](Vid a, Vid b) { return a.value() > b.value(); });
  return vids;
}

std::vector<Pid> children_list(const LookupTree& tree, Pid k,
                               const util::StatusWord& live) {
  const std::vector<Vid> vids = expand_children_list(
      tree.virtual_tree(), tree.vid_of(k),
      [&tree](Vid v) { return tree.pid_of(v); }, live);
  std::vector<Pid> out;
  out.reserve(vids.size());
  for (Vid v : vids) out.push_back(tree.pid_of(v));
  return out;
}

}  // namespace lesslog::core
