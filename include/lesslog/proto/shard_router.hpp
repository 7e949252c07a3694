// Cross-shard datagram mailboxes for the sharded swarm.
//
// One mailbox per ordered (source shard, destination shard) pair, stored
// as parallel arrays (delivery times | wire images) so a drain hands the
// destination network a whole box in one deliver_batch() call — the
// event queue admits the run with batched bookkeeping instead of one
// wheel/heap operation per parcel. Access is single-producer/
// single-consumer by construction of the sharded engine's phase
// structure: during a window only shard `s`'s worker appends to the
// (s, *) boxes; during the barrier's drain phase only shard `d`'s drain
// touches the (*, d) boxes. The thread-pool barrier between the phases
// supplies the happens-before edge, so no atomics or locks are needed —
// and the drain order (source index ascending, FIFO within a source) is
// fixed, which is what makes the merged event order deterministic for a
// given shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "lesslog/proto/message.hpp"
#include "lesslog/proto/shard_map.hpp"

namespace lesslog::proto {

class Network;

class ShardRouter {
 public:
  /// `map` is the PID -> shard policy (see shard_map.hpp); its shard
  /// count fixes the mailbox grid.
  explicit ShardRouter(const ShardMap& map);

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] const ShardMap& map() const noexcept { return map_; }
  [[nodiscard]] std::size_t shard_of(core::Pid p) const noexcept {
    return map_.shard_of(p);
  }

  /// Mailboxes a wire image for delivery at absolute time `deliver_at`.
  /// Caller context: shard `from`'s worker, inside a window.
  void post(std::size_t from, std::size_t to, double deliver_at,
            const WireBuffer& wire);

  /// Schedules every parcel addressed to shard `dest` into `net` (its
  /// network) and empties those boxes. Caller context: the barrier's
  /// drain phase, shard `dest`'s drain task.
  void drain_into(std::size_t dest, Network& net);

 private:
  /// One mailbox, SoA: parcel i is (at[i], wire[i]), FIFO in post order.
  struct Box {
    std::vector<double> at;
    std::vector<WireBuffer> wire;
  };

  std::size_t shards_;
  ShardMap map_;
  std::vector<Box> box_;  ///< box_[from * shards_ + to]
};

}  // namespace lesslog::proto
