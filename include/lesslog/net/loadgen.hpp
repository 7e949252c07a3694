// LoadGen: a client-role process driving real GET traffic through the
// socket transport, using the unmodified proto::Client reliability
// stack (timeouts, retries, subtree migration).
//
// The loadgen embodies the host map's client entry: one PID that every
// serving peer believes dead (so no file placement or forwarding ever
// targets it) but that still receives replies, because peers answer a
// GET straight to the requester PID with no liveness check. Locally it
// runs a Peer (the reply funnel) + Client over an engine pumped against
// the wall clock, exactly like ServeHost — the Client's retry timers
// fire in wall time.
//
// Two phases:
//   1. Insert: `files` files are placed via kInsertRequest to each
//      holder that core::SubtreeView::insertion_targets resolves (the
//      same placement the simulator's ShardedSwarm::insert uses), retried
//      until acked or the setup deadline expires.
//   2. Get: fixed-rate GETs (rate req/s for `duration` seconds) against
//      uniformly random files, measured end to end; the report carries
//      every latency sample plus exact p50/p99.
#pragma once

#include <chrono>
#include <memory>
#include <ostream>
#include <vector>

#include "lesslog/net/transport.hpp"
#include "lesslog/obs/metrics.hpp"
#include "lesslog/obs/wire_metrics.hpp"
#include "lesslog/proto/client.hpp"
#include "lesslog/proto/network.hpp"
#include "lesslog/proto/peer.hpp"
#include "lesslog/sim/engine.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::net {

struct LoadGenConfig {
  int m = 6;
  int b = 2;
  std::size_t self = 0;  ///< this process's host-map entry (client role)
  HostMap hosts;
  std::uint64_t seed = 1;
  int files = 32;           ///< catalog size inserted in phase 1
  double rate = 200.0;      ///< GETs per second in phase 2
  double duration = 2.0;    ///< GET phase length (wall seconds)
  double setup_timeout = 20.0;  ///< insert-phase deadline (wall seconds)
  double drain_timeout = 10.0;  ///< post-phase wait for stragglers
  proto::ClientConfig client;   ///< timeout/retry knobs
  TransportConfig transport;

  void validate() const;
};

struct LoadGenReport {
  std::int64_t files_requested = 0;  ///< catalog size
  std::int64_t files_inserted = 0;   ///< fully acked on every holder
  std::int64_t gets_issued = 0;
  std::int64_t gets_ok = 0;
  std::int64_t gets_failed = 0;
  std::vector<double> latencies;  ///< seconds, completed GETs

  [[nodiscard]] bool all_ok() const noexcept {
    return files_inserted == files_requested && gets_issued > 0 &&
           gets_failed == 0 && gets_ok == gets_issued;
  }
  [[nodiscard]] double p50() const;
  [[nodiscard]] double p99() const;
};

class LoadGen {
 public:
  explicit LoadGen(LoadGenConfig cfg);

  /// Installs the network splice, binds the listener, starts outgoing
  /// connects. Idempotent; run() calls it. Exposed so tests can bind on
  /// port 0, read the real port, and patch peers before traffic starts.
  void start();

  /// Runs both phases to completion; returns the report.
  LoadGenReport run();

  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] proto::Network& network() noexcept { return network_; }
  [[nodiscard]] const proto::Client& client() const noexcept {
    return *client_;
  }
  /// The obs registry backing the wire metrics (histogram p50/p99 for
  /// --metrics output).
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }

  /// One-line key=value stats in the same shape as ServeHost's.
  void write_stats(std::ostream& out, const LoadGenReport& report) const;

 private:
  [[nodiscard]] double elapsed() const;
  int step(int max_wait_ms);
  /// Pumps until `done()` or the wall deadline; returns done().
  bool pump_until(const std::function<bool()>& done, double deadline);

  LoadGenConfig cfg_;
  sim::Engine engine_;
  proto::Network network_;
  util::CowStatus status_;
  obs::Registry registry_;
  obs::WireMetrics metrics_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<proto::Peer> peer_;     ///< the client PID, reply funnel
  std::unique_ptr<proto::Client> client_;
  std::chrono::steady_clock::time_point t0_;
  bool started_ = false;
};

}  // namespace lesslog::net
