#include "lesslog/core/routing.hpp"

#include <cassert>

namespace lesslog::core {

std::optional<Pid> first_alive_ancestor(const LookupTree& tree, Pid k,
                                        const util::StatusWord& live) {
  const VirtualTree& vt = tree.virtual_tree();
  Vid v = tree.vid_of(k);
  while (!vt.is_root(v)) {
    v = vt.parent(v);
    const Pid p = tree.pid_of(v);
    if (live.is_live(p.value())) return p;
  }
  return std::nullopt;
}

AncestorTable build_ancestor_table(const LookupTree& tree,
                                   const util::StatusWord& live) {
  const int m = tree.width();
  const std::uint32_t slots = util::space_size(m);
  AncestorTable table;
  table.next.assign(slots, AncestorTable::kNone);
  // Parent VIDs are numerically larger than their children (Property 2
  // sets a bit), so a descending VID scan visits every parent before its
  // children and the dead-parent case can reuse the parent's own entry.
  for (std::uint32_t v = slots - 1; v-- > 0;) {
    const std::uint32_t parent_vid = util::set_highest_zero(v, m);
    const Pid parent = tree.pid_of(Vid{parent_vid});
    const Pid self = tree.pid_of(Vid{v});
    table.next[self.value()] = live.is_live(parent.value())
                                   ? parent.value()
                                   : table.next[parent.value()];
  }
  table.root = tree.root();
  table.root_live = live.is_live(table.root.value());
  if (!table.root_live) {
    if (const std::optional<Pid> holder = insertion_target(tree, live)) {
      table.fallback_holder = holder->value();
    }
  }
  return table;
}

RouteResult route_get(const LookupTree& tree, Pid k,
                      const util::StatusWord& live,
                      const HasCopyFn& has_copy) {
  assert(live.is_live(k.value()) && "requests originate at live nodes");
  RouteResult result;
  result.path.push_back(k);
  if (has_copy(k)) {
    result.served_by = k;
    return result;
  }
  Pid current = k;
  while (true) {
    const std::optional<Pid> up = first_alive_ancestor(tree, current, live);
    if (!up.has_value()) break;
    current = *up;
    result.path.push_back(current);
    if (has_copy(current)) {
      result.served_by = current;
      return result;
    }
  }
  // The chain is exhausted without finding a copy. If the root is live we
  // visited it, so the file simply does not exist anywhere on the path and
  // the target itself lacks it -> fault. With a dead root, the original
  // copy lives at the FINDLIVENODE(r, r) node; jump there.
  if (!live.is_live(tree.root().value())) {
    const std::optional<Pid> holder = insertion_target(tree, live);
    if (holder.has_value() && *holder != current) {
      result.used_fallback = true;
      result.path.push_back(*holder);
      if (has_copy(*holder)) result.served_by = *holder;
    } else if (holder.has_value() && has_copy(*holder)) {
      // Already standing on the holder (it was the top of our chain).
      result.served_by = *holder;
    }
  }
  return result;
}

}  // namespace lesslog::core
