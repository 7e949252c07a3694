// Pre-resolved metric cells for the protocol layer.
//
// The swarm registers every wire metric once at construction and hands
// this bundle of raw cell pointers to Network / Peer / Client, so each
// instrumented event is a single indirect increment — no name lookup on
// the hot path. Registration order (and therefore snapshot order) is
// fixed by the constructor.
#pragma once

#include <array>

#include "lesslog/obs/metrics.hpp"
#include "lesslog/proto/message.hpp"

namespace lesslog::obs {

struct WireMetrics {
  /// Wire type tags are 1..14; slot 0 is unused so a MsgType indexes
  /// directly. Tags 1..10 predate the SWIM messages and keep their
  /// original registration (and therefore snapshot-merge) positions; the
  /// SWIM slots 11..13 were appended in the membership PR, and the kBusy
  /// slot 14 after those — each generation of cells registers strictly
  /// after every older one so historic snapshot prefixes stay aligned.
  static constexpr std::size_t kTypeSlots = 15;
  static constexpr std::size_t kSwimTypeSlots = 14;
  static constexpr std::size_t kLegacyTypeSlots = 11;

  explicit WireMetrics(Registry& registry);

  [[nodiscard]] Counter& in_for(proto::MsgType t) const noexcept {
    return *msgs_in[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] Counter& out_for(proto::MsgType t) const noexcept {
    return *msgs_out[static_cast<std::size_t>(t)];
  }

  // Delivered / sent datagrams by message type ("msgs_in.GET", ...).
  std::array<Counter*, kTypeSlots> msgs_in{};
  std::array<Counter*, kTypeSlots> msgs_out{};

  // Network totals.
  Counter* bytes_out = nullptr;
  Counter* dropped = nullptr;
  Counter* undeliverable = nullptr;

  // Peer-side service counters.
  Counter* served = nullptr;
  Counter* forwarded = nullptr;
  Counter* push_retries = nullptr;

  // Client-side reliability counters.
  Counter* gets_issued = nullptr;
  Counter* get_retries = nullptr;
  Counter* get_timeouts = nullptr;
  Counter* get_migrations = nullptr;
  Counter* get_faults = nullptr;

  // Sampled gauges (refreshed by the swarm's sampler hook).
  Gauge* queue_depth = nullptr;
  Gauge* live_peers = nullptr;
  Gauge* max_served = nullptr;

  // End-to-end GETFILE latency (successful requests), in seconds.
  LatencyHistogram* get_latency = nullptr;

  // Delivery outcome totals (appended after get_latency to preserve the
  // registration order of pre-existing cells).
  Counter* delivered = nullptr;
  Counter* corrupted = nullptr;

  // Injected-fault accounting (chaos layer; zero on a clean network).
  Counter* injected_burst_drops = nullptr;
  Counter* injected_partition_drops = nullptr;
  Counter* injected_duplicates = nullptr;
  Counter* injected_corruptions = nullptr;
  Counter* injected_delay_spikes = nullptr;

  // Repair traffic: kFilePush transmissions that re-create replicas after
  // membership changes (join reclaim, depart push, crash recovery).
  Counter* repair_pushes = nullptr;

  // Shard-boundary accounting (appended last to preserve registration
  // order): datagrams that left via the cross-shard forward hook vs.
  // those the hook declined (destination on the sender's own shard).
  // Both stay zero when no hook is installed (S = 1). The cross-shard
  // message fraction is cross / (cross + intra).
  Counter* cross_shard_msgs = nullptr;
  Counter* intra_shard_msgs = nullptr;

  // SWIM membership accounting (appended last — including the msgs_in/out
  // slots for the three SWIM wire types — so pre-membership snapshots keep
  // their registration order and single-shard merges stay byte-identical).
  Counter* swim_suspects = nullptr;      ///< suspicion verdicts reached
  Counter* swim_confirms = nullptr;      ///< suspects declared dead
  Counter* swim_refutations = nullptr;   ///< suspicions killed by alive(inc+1)
  Counter* swim_incarnation_bumps = nullptr;  ///< self-refutation bumps
  Counter* swim_gossip_bytes = nullptr;  ///< piggyback payload bytes carried

  // Adaptive request-reliability accounting (appended last, after the
  // SWIM cells and the kBusy msgs_in/out slots, so pre-reliability
  // snapshot prefixes keep their positions). All zero with the layer off.
  Counter* rtt_samples = nullptr;     ///< Karn-clean RTT samples absorbed
  Counter* hedges = nullptr;          ///< hedge GET legs launched
  Counter* hedge_wins = nullptr;      ///< requests completed by the hedge leg
  Counter* hedge_cancels = nullptr;   ///< hedge legs resolved by the other leg
  Counter* busy_received = nullptr;   ///< kBusy replies acted on by clients
  Counter* busy_shed = nullptr;       ///< GETs refused over the service budget
};

}  // namespace lesslog::obs
