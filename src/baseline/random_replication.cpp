#include "lesslog/baseline/policy.hpp"

namespace lesslog::baseline {

sim::PlacementFn random_policy() {
  return [](const sim::PlacementContext& ctx) -> std::optional<core::Pid> {
    // Uniform choice over the live nodes that could take a copy. The
    // candidate set is `live & ~copy` minus the overloaded node itself,
    // in ascending PID order either way.
    const std::uint32_t over = ctx.overloaded.value();
    if (ctx.candidates != nullptr) {
      // Dropping `over` from the candidates moves every later one down a
      // place — the same pick as indexing the ascending candidate list.
      const sim::PlacementCandidates& open = *ctx.candidates;
      const bool skip = open.contains(over);
      const std::uint64_t count = open.count() - (skip ? 1u : 0u);
      if (count == 0) return std::nullopt;
      const std::uint64_t pick = ctx.rng.bounded(count);
      std::uint32_t p = open.select(pick);
      if (skip && p >= over) p = open.select(pick + 1);
      return core::Pid{p};
    }
    // Byte-map fallback for contexts without a candidate set.
    std::vector<std::uint32_t> candidates;
    candidates.reserve(ctx.live.live_count());
    for (std::uint32_t p = 0; p < ctx.live.capacity(); ++p) {
      if (ctx.live.is_live(p) && ctx.has_copy[p] == 0 && p != over) {
        candidates.push_back(p);
      }
    }
    if (candidates.empty()) return std::nullopt;
    const std::uint64_t pick = ctx.rng.bounded(candidates.size());
    return core::Pid{candidates[pick]};
  };
}

}  // namespace lesslog::baseline
