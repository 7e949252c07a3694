#include "lesslog/core/membership.hpp"

namespace lesslog::core {

std::vector<HolderChange> diff_holders(const SubtreeView& view,
                                       const util::StatusWord& before,
                                       const util::StatusWord& after) {
  std::vector<HolderChange> changes;
  for (std::uint32_t t = 0; t < view.subtree_count(); ++t) {
    const std::optional<Pid> old_holder = view.insertion_target(t, before);
    const std::optional<Pid> new_holder = view.insertion_target(t, after);
    if (old_holder != new_holder) {
      changes.push_back(HolderChange{t, old_holder, new_holder});
    }
  }
  return changes;
}

std::int64_t broadcast_cost(const util::StatusWord& live) {
  return live.live_count() > 0
             ? static_cast<std::int64_t>(live.live_count()) - 1
             : 0;
}

}  // namespace lesslog::core
