// PID -> shard assignment policies for the sharded swarm.
//
// The mapping seam behind ShardRouter / ShardedSwarm. Two policies:
//
//   * kRange — the original contiguous partition: PID p lives on shard
//     p / ceil(2^m / S). Shards own PID intervals, which is what makes a
//     clustered geographic layout give every shard its own region (and
//     therefore a positive pairwise distance floor for the adaptive
//     lookahead) — but tree edges mostly cross shards.
//
//   * kSubtree — the locality policy: PID p lives on shard p mod S.
//     LessLog's virtual tree is suffix-structured: the subtree rooted at
//     a VID with i leading one-bits is exactly the set of VIDs sharing
//     its low m-i bits (the top i bits run free). The physical tree of
//     any root r is the XOR image vid ^ comp(r), which preserves bit
//     positions — so for a power-of-two S = 2^s, *every* subtree of at
//     most 2^(m-s) nodes shares one value of (p mod S) and lives whole
//     on one shard, in every physical tree simultaneously. Only the
//     S - 1 spine edges near the root (a child whose VID has at least
//     m - s leading ones) can cross shards, versus nearly all edges
//     under the range split. That is the cross-shard-traffic
//     optimization; the trade-off is that shards interleave the whole
//     ID space, so a geographic layout gives them no distance floor
//     (the adaptive lookahead falls back to the base latency).
//
// Both policies are total over [0, 2^m) and depend only on (m, S), so a
// run's outcome is a pure function of (seed, S, kind).
#pragma once

#include <algorithm>
#include <cstdint>

#include "lesslog/core/ids.hpp"
#include "lesslog/util/bits.hpp"

namespace lesslog::proto {

class ShardMap {
 public:
  enum class Kind : std::uint8_t {
    kRange,    ///< p / ceil(2^m / S): contiguous PID intervals
    kSubtree,  ///< p mod S: XOR-tree subtrees stay shard-local
  };

  /// A single-shard identity map (everything on shard 0).
  ShardMap() : ShardMap(Kind::kRange, /*m=*/1, /*shards=*/1) {}

  /// Throws nothing; preconditions (1 <= shards <= 2^m) are the
  /// ShardedSwarm constructor's to validate.
  ShardMap(Kind kind, int m, std::size_t shards)
      : kind_(kind),
        shards_(static_cast<std::uint32_t>(shards)),
        space_(util::space_size(m)),
        block_((space_ + shards_ - 1u) / shards_) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  [[nodiscard]] std::size_t shard_of(core::Pid p) const noexcept {
    return kind_ == Kind::kRange ? p.value() / block_ : p.value() % shards_;
  }

  /// Where shard s's PIDs sit: the first, the step to the next, and how
  /// many. kRange: one block of consecutive PIDs; kSubtree: s, s + S,
  /// s + 2S, ... Precondition: s < shards().
  [[nodiscard]] std::uint32_t first_pid(std::size_t s) const noexcept {
    return kind_ == Kind::kRange
               ? std::min(static_cast<std::uint32_t>(s) * block_, space_)
               : static_cast<std::uint32_t>(s);
  }
  [[nodiscard]] std::uint32_t pid_stride() const noexcept {
    return kind_ == Kind::kRange ? 1u : shards_;
  }
  [[nodiscard]] std::uint32_t pid_count(std::size_t s) const noexcept {
    const std::uint32_t first = first_pid(s);
    return kind_ == Kind::kRange
               ? std::min(block_, space_ - first)
               : (space_ - first + shards_ - 1u) / shards_;
  }

  friend bool operator==(const ShardMap&, const ShardMap&) = default;

 private:
  Kind kind_;
  std::uint32_t shards_;
  std::uint32_t space_;  ///< 2^m
  std::uint32_t block_;  ///< kRange partition block, ceil(2^m / S)
};

[[nodiscard]] constexpr const char* shard_map_name(
    ShardMap::Kind k) noexcept {
  return k == ShardMap::Kind::kRange ? "range" : "subtree";
}

}  // namespace lesslog::proto
