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
// Implementations in-tree: proto::Trace (record + query), JsonlSink
// (stream one JSON object per event), membership::SwimRuntime (membership
// events only). Per-type delivery counts need no sink: the network bumps
// its msgs_in cells itself.
#pragma once

#include <iosfwd>

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

/// Streaming exporter: one JSON object per observed event, written as it
/// happens (JSONL). Delivery lines carry the full message; membership
/// lines are tagged "event":"peer".
class JsonlSink final : public DeliverySink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}

  void on_deliver(double time, const proto::Message& m) override;
  void on_peer(double time, core::Pid peer, bool live) override;

 private:
  std::ostream* out_;
};

/// Writes one delivery record in the shared JSONL shape (used by
/// JsonlSink and proto::Trace so both emit identical lines).
void write_delivery_jsonl(std::ostream& out, double time,
                          const proto::Message& m);

}  // namespace lesslog::obs
