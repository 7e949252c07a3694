// Per-layer measurement, shared by every workload's traced pass.
//
// Every per-layer metric BENCHMARK.json registers exists on every
// workload: the timings are micro-timed calls into each layer's public
// functions on inputs taken from the workload (its ID-space width, its
// liveness word, the messages it delivered, its store sizes), and the
// counts come from the run itself — zero where the workload never
// crosses that layer (fig5 sends no messages; only the wire workload
// touches sockets).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "lesslog/obs/sink.hpp"
#include "lesslog/proto/message.hpp"
#include "lesslog/util/status_word.hpp"
#include "report.hpp"

namespace lesslog::benchmark {

/// What the micro-timings run on.
struct LayerInputs {
  int m = 10;
  /// The workload's liveness word; null times an all-live word of width m.
  const util::StatusWord* status = nullptr;
  /// Messages the run delivered; empty times a GET/REPLY pair.
  std::vector<proto::Message> mix;
  std::size_t store_size = 1;      ///< copies held by a holding peer
  std::size_t router_volume = 1024;  ///< cross-shard parcels per window
  std::uint64_t seed = 1;
};

/// Per-call costs in ns.
struct LayerCosts {
  double find_live_dense = 0.0;   ///< insertion_target, workload liveness
  double find_live_sparse = 0.0;  ///< insertion_target, half the PIDs dead
  double replicate_target = 0.0;
  double filestore_serve = 0.0;   ///< FileStore::serve, half hits
  double filestore_write = 0.0;   ///< put_replica / erase
  double queue_lane = 0.0;        ///< schedule_after_fixed(10 ms) + step
  double queue_wheel = 0.0;       ///< schedule(10 +- 5 ms) + step
  double solver_setup = 0.0;      ///< one experiment call's fixed set-up
  double solver_solve = 0.0;      ///< one balance-loop iteration
  double encode = 0.0;
  double decode = 0.0;
  double router = 0.0;            ///< ShardRouter post + drain, per parcel
  double cow_mutate = 0.0;        ///< CowStatus::mutate on a shared word
};

[[nodiscard]] LayerCosts measure_layers(const LayerInputs& in);

/// Counts and ratios from the run itself. Every field is registered on
/// every workload; zero means the workload does not cross that layer.
struct LayerCounts {
  double solver_solves = 0.0;
  double events = 0.0;
  double windows = 0.0;  ///< timed run_until slices of the traced pass
  double msgs_per_get = 0.0;
  double hops_p50 = 0.0;
  double hops_p99 = 0.0;
  /// Delivered datagrams by wire type (GET .. PUSH_ACK, tags 1..10).
  std::array<double, 11> msgs{};
  double router_cross_frac = 0.0;
  double client_retries = 0.0;
  double client_timeouts = 0.0;
  double update_fanout = 0.0;  ///< UpdatePush deliveries per update()
  double auto_replicas = 0.0;
  double auto_removals = 0.0;
  double frames_per_get = 0.0;
  double gen_frames_per_poll = 0.0;
  double drops = 0.0;
  double serve_syscalls_per_frame = 0.0;
  double serve_ctxsw_per_kget = 0.0;
  double serve_cpu_util_r25k = 0.0;
  double serve_cpu_util_r75k = 0.0;
  double gen_late_frac = 0.0;  ///< GETs issued more than 250 us late
  double explained_frac = 0.0;
  double setup_construct_frac = 0.0;
  double trace_overhead_frac = 0.0;

  // Workload-specific headline numbers, demoted from end-to-end because
  // an end-to-end metric must exist on every workload; see README.md.
  double fig5_wall_s = 0.0;       ///< one untraced sweep, as measured
  double sim_events_per_s = 0.0;  ///< untraced round / pass
  double get_ok_frac = 0.0;
  double get_p50_us_r25k = 0.0;
  double get_p99_us_r25k = 0.0;
  double get_p50_us_r75k = 0.0;
  double get_p99_us_r75k = 0.0;
  double get_p999_us_r75k = 0.0;
  double max_rate_ok = 0.0;
  double serve_cpu_us_per_get_r25k = 0.0;
};

/// Registers the per-layer metrics (costs, then counts) in a fixed order.
void report_layers(const LayerCosts& costs, const LayerCounts& counts,
                   Result& result);

/// Per-shard delivery observer of the traced pass: counts by wire type,
/// the wall gap between consecutive deliveries charged to the earlier
/// message's type (its handler plus queue self time), spans of GETs and
/// replies whose correlation id is sampled (its SplitMix64 mix is 0 mod
/// kSpanSample: raw ids are PID-striped, so `id % 1024` alone would
/// sample almost none), a sample of the delivered mix, and how many distinct
/// peers received a status announce (each forces one CowStatus clone).
/// One recorder per shard network, so no recorder is shared by threads.
class DeliveryRecorder final : public obs::DeliverySink {
 public:
  static constexpr std::size_t kTypes = 15;
  static constexpr std::uint64_t kSpanSample = 1024;

  DeliveryRecorder(std::size_t shard, int m);

  void on_deliver(double time, const proto::Message& m) override;

  /// A slice boundary: the next gap would include barrier time or the
  /// calling thread's own work between slices.
  void cut() noexcept { last_ns_ = 0; }

  /// Appends this shard's spans to `log` as JSON objects.
  void flush_spans(SpanLog& log) const;

  std::array<std::int64_t, kTypes> count{};
  std::array<double, kTypes> gap_ns{};
  std::array<std::int64_t, kTypes> gap_n{};
  std::vector<proto::Message> mix;  ///< every 64th delivery, up to 4096
  std::int64_t status_receivers = 0;

 private:
  struct Span {
    std::int64_t wall_ns;
    double sim_time;
    proto::MsgType type;
    std::uint64_t id;
    std::uint32_t from;
    std::uint32_t to;
  };
  std::size_t shard_;
  std::vector<std::uint8_t> heard_status_;  ///< per PID
  std::vector<Span> spans_;
  std::int64_t last_ns_ = 0;
  std::size_t last_type_ = 0;
  std::int64_t seen_ = 0;
};

/// Sums recorders' per-type counts and gaps into `counts` and returns
/// the per-type mean gaps (ns) as details.
void merge_recorders(const std::vector<const DeliveryRecorder*>& recorders,
                     LayerCounts& counts, Result& result);

}  // namespace lesslog::benchmark
