#include "lesslog/net/serve.hpp"

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "lesslog/util/bits.hpp"

namespace lesslog::net {

namespace {

/// Serve mode runs with zero simulated latency: the wire itself is the
/// latency now. Local (same-process) deliveries schedule at now() and
/// execute on the next pump tick.
proto::NetworkConfig serve_net_config() {
  proto::NetworkConfig cfg;
  cfg.base_latency = 0.0;
  cfg.jitter = 0.0;
  cfg.drop_probability = 0.0;
  cfg.link_stagger = 0.0;
  return cfg;
}

}  // namespace

void ServeConfig::validate() const {
  hosts.validate();
  if (m < 1 || m > 30) {
    throw std::invalid_argument("serve: m must be in [1, 30]");
  }
  if (b < 0 || b >= m) {
    throw std::invalid_argument("serve: b must be in [0, m)");
  }
  if (self >= hosts.size()) {
    throw std::invalid_argument("serve: self index out of range");
  }
  if (hosts.entry(self).client) {
    throw std::invalid_argument("serve: self entry has client role");
  }
  const std::uint32_t space = util::space_size(m);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts.entry(i).hi >= space) {
      throw std::invalid_argument("serve: host map entry " +
                                  std::to_string(i) +
                                  " exceeds the 2^m ID space");
    }
  }
}

ServeHost::ServeHost(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(cfg_.seed),
      network_(engine_, serve_net_config()),
      status_(util::StatusWord(cfg_.m)),
      t0_(std::chrono::steady_clock::now()) {
  cfg_.validate();
  // Ground truth liveness: every serve-range PID is up. Client PIDs stay
  // dead in every peer's belief, so no file placement or forwarding ever
  // targets a loadgen — replies still reach it, because reply delivery
  // goes straight to the requester PID without a liveness check.
  for (std::size_t i = 0; i < cfg_.hosts.size(); ++i) {
    const HostEntry& e = cfg_.hosts.entry(i);
    if (e.client) continue;
    for (std::uint32_t p = e.lo; p <= e.hi; ++p) {
      status_.mutate().set_live(p);
    }
  }
  transport_ = std::make_unique<Transport>(cfg_.hosts, cfg_.self,
                                           cfg_.transport);
  const HostEntry& self = cfg_.hosts.entry(cfg_.self);
  for (std::uint32_t p = self.lo; p <= self.hi; ++p) {
    peers_.push_back(std::make_unique<proto::Peer>(
        core::Pid{p}, cfg_.b, status_.snapshot(), network_, cfg_.peer));
  }
}

void ServeHost::start() {
  if (started_) return;
  started_ = true;
  // Outbound splice: local destinations fall through to the engine
  // (return false); remote ones are written to the wire. The simulated
  // arrival time is discarded — real wire latency replaces it.
  network_.set_forward(
      [this](core::Pid to, double, const proto::WireBuffer& wire) {
        if (owns(to)) return false;
        (void)transport_->send(to, wire);  // best-effort; drops counted
        return true;
      });
  // Inbound splice: frames enter the Network's decode/dispatch funnel
  // stamped with the wall clock at arrival — not engine_.now(), which is
  // the run_before bound from *before* the epoll wait and would
  // timestamp every frame in the past, zeroing measured latencies. A
  // decode reject is a counted corrupted drop, exactly as under
  // simulated fault injection.
  transport_->set_frame_handler([this](const proto::WireBuffer& wire) {
    network_.deliver_at(elapsed(), wire);
  });
  for (auto& peer : peers_) peer->attach();
  transport_->bind();
  transport_->connect_all();
  t0_ = std::chrono::steady_clock::now();
}

double ServeHost::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

int ServeHost::step(int max_wait_ms) {
  const double wall = elapsed();
  engine_.run_before(wall);
  // Sleep in epoll until socket activity or the next engine timer, for
  // exactly the time left (rounded up, so the timer is due on waking).
  double wait_s = static_cast<double>(max_wait_ms) / 1000.0;
  if (!engine_.queue().empty()) {
    wait_s = std::clamp(engine_.queue().next_time() - elapsed(), 0.0,
                        wait_s);
  }
  return transport_->poll(std::chrono::ceil<std::chrono::nanoseconds>(
      std::chrono::duration<double>(wait_s)));
}

void ServeHost::run() {
  start();
  while (!stopped_ &&
         (cfg_.duration <= 0.0 || elapsed() < cfg_.duration)) {
    step(50);
  }
  // Drain whatever became due while the loop condition flipped, and
  // write the frames it queued: no poll() follows to flush them.
  engine_.run_before(elapsed());
  transport_->flush();
}

void ServeHost::write_stats(std::ostream& out) const {
  const TransportStats t = transport_->stats();
  std::int64_t served = 0;
  for (const auto& peer : peers_) served += peer->served();
  out << "decode_drops=" << network_.corrupted()
      << " delivered=" << network_.delivered()
      << " undeliverable=" << network_.undeliverable()
      << " frames_in=" << t.frames_in << " frames_out=" << t.frames_out
      << " bytes_in=" << t.bytes_in << " bytes_out=" << t.bytes_out
      << " overflow_dropped=" << t.overflow_dropped
      << " unroutable_dropped=" << t.unroutable_dropped
      << " accepts=" << t.accepts << " connects=" << t.connects
      << " reconnects=" << t.reconnects
      << " disconnects=" << t.disconnects
      << " send_calls=" << t.send_calls << " readv_calls=" << t.readv_calls
      << " epoll_ctl_calls=" << t.epoll_ctl_calls
      << " epoll_wait_calls=" << t.epoll_wait_calls << " served=" << served
      << "\n";
}

bool leave_spawn_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  const int here = sched_getcpu();
  if (here < 0 || CPU_COUNT(&allowed) < 2 ||
      !CPU_ISSET(static_cast<std::size_t>(here), &allowed)) {
    return false;
  }
  // Excluding the current CPU migrates the thread before the call
  // returns; restoring the mask leaves it where it landed.
  cpu_set_t others = allowed;
  CPU_CLR(static_cast<std::size_t>(here), &others);
  if (sched_setaffinity(0, sizeof others, &others) != 0) return false;
  return sched_setaffinity(0, sizeof allowed, &allowed) == 0;
}

}  // namespace lesslog::net
