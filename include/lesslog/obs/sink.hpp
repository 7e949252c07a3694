// The unified swarm observer API.
//
// A DeliverySink sees every datagram the network hands to an attached
// peer (at delivery time, before the peer's handler runs) plus the
// swarm's membership events. Sinks are registered with
// ShardedSwarm::add_sink() and notified in registration order; peers that
// join after registration are covered automatically — the notification
// point is the network's single delivery funnel, not per-peer handler
// wrappers, so there is nothing to re-arm.
//
// Implementations in-tree: proto::Trace (record, query and JSONL export)
// and membership::SwimRuntime (membership events only). Per-type delivery
// counts need no sink: the network bumps its msgs_in cells itself.
#pragma once

#include "lesslog/obs/wire_metrics.hpp"

namespace lesslog::obs {

class DeliverySink {
 public:
  virtual ~DeliverySink();

  /// One call per datagram delivered to an attached peer, immediately
  /// before the peer's handler runs. `time` is the simulated delivery
  /// time. Dropped and undeliverable datagrams are not delivered and are
  /// not observed here.
  virtual void on_deliver(double time, const proto::Message& m) = 0;

  /// Membership notification from the swarm: `peer` joined (live) or
  /// left / crashed (!live). Default: ignore.
  virtual void on_peer(double time, core::Pid peer, bool live);
};

}  // namespace lesslog::obs
