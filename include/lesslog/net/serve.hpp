// ServeHost: one real process embodying one host-map entry's PID range,
// running the unmodified proto::Peer stack over the socket transport.
//
// The splice is the Network forward hook (proto::Network::set_forward):
// a peer's send whose destination PID lives in this process falls
// through to the local discrete-event engine exactly as in the
// simulator; a send to any other PID is taken by the hook and written
// to the wire as its 43-byte image. Inbound frames are scheduled with
// Network::deliver_at at the current engine time, so they enter the
// same decode/dispatch funnel as simulated traffic — including the
// counted corrupted-drop path for bytes that fail to decode.
//
// Time: the engine is pumped against the wall clock. Each step runs
// every event with timestamp < elapsed wall seconds, then blocks in
// epoll until the next timer or socket activity. Simulated seconds and
// wall seconds coincide, so peer retransmit timers, client timeouts,
// and latency accounting work unmodified; the simulator remains the
// deterministic twin of the same configuration (see docs/TRANSPORT.md).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <ostream>

#include "lesslog/net/transport.hpp"
#include "lesslog/proto/network.hpp"
#include "lesslog/proto/peer.hpp"
#include "lesslog/sim/engine.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::net {

struct ServeConfig {
  int m = 6;             ///< ID-space bits
  int b = 2;             ///< fault bits (2^b holders per file)
  std::size_t self = 0;  ///< this process's host-map entry (serve role)
  HostMap hosts;
  std::uint64_t seed = 1;
  double duration = 0.0;  ///< wall seconds to serve; 0 = until stop()
  proto::PeerConfig peer;
  TransportConfig transport;

  /// Throws std::invalid_argument on nonsense (self out of range or not
  /// a serve entry, PIDs outside the ID space, bad m/b).
  void validate() const;
};

class ServeHost {
 public:
  explicit ServeHost(ServeConfig cfg);

  /// Binds the listener, starts outgoing connects, attaches the local
  /// peers, installs the forward hook. Idempotent.
  void start();

  /// Wall-clock pump until the configured duration elapses (or stop()).
  void run();

  /// One pump iteration: run due engine events, then block in epoll for
  /// at most `max_wait_ms`. Tests drive this directly.
  int step(int max_wait_ms);

  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool owns(core::Pid pid) const noexcept {
    return pid.value() >= cfg_.hosts.entry(cfg_.self).lo &&
           pid.value() <= cfg_.hosts.entry(cfg_.self).hi;
  }

  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] proto::Network& network() noexcept { return network_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }
  /// Wall seconds since run()/start().
  [[nodiscard]] double elapsed() const;

  /// One-line key=value stats (decode drops, frames, queue overflow) —
  /// what the transport_smoke gate parses.
  void write_stats(std::ostream& out) const;

 private:
  ServeConfig cfg_;
  sim::Engine engine_;
  proto::Network network_;
  util::CowStatus status_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<proto::Peer>> peers_;  ///< local PIDs only
  std::chrono::steady_clock::time_point t0_;
  bool started_ = false;
  /// Atomic so a controlling thread can stop() a run()-ing host.
  std::atomic<bool> stopped_ = false;
};

/// Moves the calling thread to another CPU of its affinity mask, then
/// restores the mask. A process starts on the CPU of the process that
/// spawned it, and a scheduler that balances neither at exec nor at
/// wake-up (cpusets with load balancing off) keeps a mostly sleeping
/// serve there: behind a spawner that polls without sleeping, such as a
/// load generator, it gets a share of one CPU for seconds. `lesslog_cli
/// serve` calls this once before it serves. False when the thread has a
/// single allowed CPU or an affinity call fails; only a failed restore
/// leaves the mask changed.
bool leave_spawn_cpu();

}  // namespace lesslog::net
