// Message tracing: records every datagram a swarm's peers receive, with
// timestamps, as structured records — filterable, printable, and
// JSONL-exportable. The protocol_trace example renders with it; tests use
// it to assert exact message sequences.
//
// Trace is an obs::DeliverySink: it registers with the swarm's network
// (the single delivery funnel), so peers that join after construction are
// recorded automatically — there is nothing to re-arm and no handler
// wrapping involved. It appends to one vector, so it traces only a
// single-shard swarm (the shards of a larger one deliver concurrently).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "lesslog/obs/sink.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto {

struct TraceRecord {
  double time = 0.0;  ///< delivery time (simulated seconds)
  Message message;
};

class Trace final : public obs::DeliverySink {
 public:
  /// Starts recording every delivery in `swarm`. Destroy the Trace before
  /// the swarm (it unregisters itself from the swarm's sink list) —
  /// declaring it after the swarm in the same scope does exactly that.
  /// Throws std::invalid_argument when the swarm has more than one shard.
  explicit Trace(ShardedSwarm& swarm);
  ~Trace() override;

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// DeliverySink: appends one record per delivered datagram.
  void on_deliver(double time, const Message& m) override;

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  void clear() noexcept { records_.clear(); }

  /// Records of one type, in order.
  [[nodiscard]] std::vector<TraceRecord> of_type(MsgType t) const;

  /// Count of records of one type.
  [[nodiscard]] std::size_t count(MsgType t) const;

  /// Human-readable line per record ("t=0.010s GET P(8) -> P(0) ...").
  [[nodiscard]] std::string render() const;

  /// One JSON object per line (numeric fields; type as string tag).
  void write_jsonl(std::ostream& out) const;

 private:
  ShardedSwarm* swarm_;
  std::vector<TraceRecord> records_;
};

}  // namespace lesslog::proto
