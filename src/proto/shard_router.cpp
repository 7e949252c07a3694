#include "lesslog/proto/shard_router.hpp"

#include <cassert>
#include <stdexcept>

#include "lesslog/proto/network.hpp"

namespace lesslog::proto {

ShardRouter::ShardRouter(const ShardMap& map)
    : shards_(map.shards()), map_(map), box_(shards_ * shards_) {
  if (shards_ == 0) {
    throw std::invalid_argument("ShardRouter: shards must be >= 1");
  }
}

void ShardRouter::post(std::size_t from, std::size_t to, double deliver_at,
                       const WireBuffer& wire) {
  assert(from < shards_ && to < shards_ && from != to);
  Box& box = box_[from * shards_ + to];
  box.at.push_back(deliver_at);
  box.wire.push_back(wire);
}

void ShardRouter::drain_into(std::size_t dest, Network& net) {
  assert(dest < shards_);
  for (std::size_t from = 0; from < shards_; ++from) {
    Box& box = box_[from * shards_ + dest];
    net.deliver_batch(box.at.data(), box.wire.data(), box.at.size());
    box.at.clear();
    box.wire.clear();
  }
}

}  // namespace lesslog::proto
