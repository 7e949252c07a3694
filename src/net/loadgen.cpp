#include "lesslog/net/loadgen.hpp"

#include <algorithm>
#include <stdexcept>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/util/bits.hpp"
#include "lesslog/util/stats.hpp"

namespace lesslog::net {

namespace {

proto::NetworkConfig loadgen_net_config() {
  proto::NetworkConfig cfg;
  cfg.base_latency = 0.0;
  cfg.jitter = 0.0;
  cfg.drop_probability = 0.0;
  cfg.link_stagger = 0.0;
  return cfg;
}

}  // namespace

void LoadGenConfig::validate() const {
  hosts.validate();
  if (m < 1 || m > 30) {
    throw std::invalid_argument("loadgen: m must be in [1, 30]");
  }
  if (b < 0 || b >= m) {
    throw std::invalid_argument("loadgen: b must be in [0, m)");
  }
  if (self >= hosts.size()) {
    throw std::invalid_argument("loadgen: self index out of range");
  }
  if (!hosts.entry(self).client) {
    throw std::invalid_argument("loadgen: self entry must have client role");
  }
  const std::uint32_t space = util::space_size(m);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts.entry(i).hi >= space) {
      throw std::invalid_argument("loadgen: host map entry " +
                                  std::to_string(i) +
                                  " exceeds the 2^m ID space");
    }
  }
  if (files < 1) throw std::invalid_argument("loadgen: files must be >= 1");
  if (rate <= 0.0) throw std::invalid_argument("loadgen: rate must be > 0");
  if (duration <= 0.0) {
    throw std::invalid_argument("loadgen: duration must be > 0");
  }
  if (setup_timeout <= 0.0 || drain_timeout <= 0.0) {
    throw std::invalid_argument("loadgen: timeouts must be > 0");
  }
}

double LoadGenReport::p50() const {
  return latencies.empty() ? 0.0 : util::percentile(latencies, 0.50);
}

double LoadGenReport::p99() const {
  return latencies.empty() ? 0.0 : util::percentile(latencies, 0.99);
}

LoadGen::LoadGen(LoadGenConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(cfg_.seed),
      network_(engine_, loadgen_net_config()),
      status_(util::StatusWord(cfg_.m)),
      metrics_(registry_) {
  cfg_.validate();
  // The loadgen's belief mirrors the serving side's: every serve-range
  // PID live, every client PID (including its own) dead. Keeping the
  // client PID out of the liveness word means insertion_targets and GET
  // routing can never select it; replies still arrive because peers
  // answer the requester PID directly, without a liveness check.
  for (std::size_t i = 0; i < cfg_.hosts.size(); ++i) {
    const HostEntry& e = cfg_.hosts.entry(i);
    if (e.client) continue;
    for (std::uint32_t p = e.lo; p <= e.hi; ++p) {
      status_.mutate().set_live(p);
    }
  }
  transport_ = std::make_unique<Transport>(cfg_.hosts, cfg_.self,
                                           cfg_.transport);
  const core::Pid self_pid{cfg_.hosts.entry(cfg_.self).lo};
  peer_ = std::make_unique<proto::Peer>(self_pid, cfg_.b, status_.snapshot(),
                                        network_, proto::PeerConfig{});
  client_ = std::make_unique<proto::Client>(*peer_, network_, cfg_.client);
  client_->set_metrics(&metrics_);
  t0_ = std::chrono::steady_clock::now();
}

double LoadGen::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

int LoadGen::step(int max_wait_ms) {
  engine_.run_before(elapsed());
  // Exact sleep until the next engine timer (see ServeHost::step).
  double wait_s = static_cast<double>(max_wait_ms) / 1000.0;
  if (!engine_.queue().empty()) {
    wait_s = std::clamp(engine_.queue().next_time() - elapsed(), 0.0,
                        wait_s);
  }
  return transport_->poll(std::chrono::ceil<std::chrono::nanoseconds>(
      std::chrono::duration<double>(wait_s)));
}

bool LoadGen::pump_until(const std::function<bool()>& done,
                         double deadline) {
  while (!done() && elapsed() < deadline) {
    step(20);
  }
  engine_.run_before(elapsed());
  transport_->flush();  // what that last run queued
  return done();
}

void LoadGen::start() {
  if (started_) return;
  started_ = true;
  network_.set_forward(
      [this](core::Pid to, double, const proto::WireBuffer& wire) {
        if (to == peer_->pid()) return false;
        (void)transport_->send(to, wire);
        return true;
      });
  // Wall-clock arrival stamp (see ServeHost::start): stamping with
  // engine_.now() would backdate replies to the pre-wait bound and
  // zero every measured latency.
  transport_->set_frame_handler([this](const proto::WireBuffer& wire) {
    network_.deliver_at(elapsed(), wire);
  });
  peer_->attach();
  transport_->bind();
  transport_->connect_all();
  t0_ = std::chrono::steady_clock::now();
}

LoadGenReport LoadGen::run() {
  start();

  LoadGenReport report;
  report.files_requested = cfg_.files;

  // Wait for the mesh before placing files: the first inserts otherwise
  // race the connect handshakes and burn retry budget for nothing.
  pump_until([this] { return transport_->fully_connected(); },
             cfg_.setup_timeout / 2.0);

  // --- Phase 1: place the catalog. One insert per (file, holder) pair,
  // holders resolved exactly as ShardedSwarm::insert resolves them; failed
  // inserts re-issue until the setup deadline.
  struct InsertTask {
    core::FileId file{0};
    core::Pid target{0};
    core::Pid holder{0};
    int file_index = 0;
    bool acked = false;
  };
  std::vector<InsertTask> tasks;
  std::vector<int> holders_left(static_cast<std::size_t>(cfg_.files), 0);
  for (int i = 0; i < cfg_.files; ++i) {
    const core::FileId file{static_cast<std::uint64_t>(i) + 1};
    const core::Pid r = peer_->target_of(file);
    const core::LookupTree tree(cfg_.m, r);
    const core::SubtreeView view(tree, cfg_.b);
    for (const core::Pid holder : view.insertion_targets(peer_->status())) {
      tasks.push_back(
          InsertTask{file, r, holder, i, false});
      ++holders_left[static_cast<std::size_t>(i)];
    }
  }

  const double setup_deadline = cfg_.setup_timeout;
  std::function<void(std::size_t)> issue = [&](std::size_t idx) {
    client_->insert(
        tasks[idx].file, tasks[idx].target, tasks[idx].holder,
        [&, idx](bool ok) {
          if (ok) {
            if (!tasks[idx].acked) {
              tasks[idx].acked = true;
              const auto f = static_cast<std::size_t>(tasks[idx].file_index);
              if (--holders_left[f] == 0) ++report.files_inserted;
            }
          } else if (elapsed() < setup_deadline) {
            issue(idx);  // ack lost or holder slow: re-place this replica
          }
        });
  };
  for (std::size_t idx = 0; idx < tasks.size(); ++idx) issue(idx);
  pump_until(
      [&] { return report.files_inserted == report.files_requested; },
      setup_deadline);

  // --- Phase 2: fixed-rate GETs against uniformly random files,
  // scheduled upfront on the engine at exact 1/rate spacing. The engine
  // is pumped against the wall clock, so issue times are wall times.
  const auto total =
      static_cast<std::int64_t>(cfg_.rate * cfg_.duration);
  const double t_start = elapsed() + 0.05;
  std::int64_t completed = 0;
  for (std::int64_t k = 0; k < total; ++k) {
    const double when =
        t_start + static_cast<double>(k) / cfg_.rate;
    engine_.at(when, [&, this] {
      const std::uint64_t pick =
          engine_.rng().bounded(static_cast<std::uint64_t>(cfg_.files));
      const core::FileId file{pick + 1};
      ++report.gets_issued;
      client_->get(file, peer_->target_of(file),
                   [&](const proto::GetResult& res) {
                     ++completed;
                     if (res.ok) {
                       ++report.gets_ok;
                       report.latencies.push_back(res.latency);
                     } else {
                       ++report.gets_failed;
                     }
                   });
    });
  }
  const double drain_deadline =
      t_start + cfg_.duration + cfg_.drain_timeout;
  pump_until(
      [&] {
        return report.gets_issued == total && completed == total;
      },
      drain_deadline);

  // Anything still pending at the drain deadline is a fault we would
  // otherwise never hear about; account it so all_ok() stays honest.
  report.gets_failed += report.gets_issued - completed;
  return report;
}

void LoadGen::write_stats(std::ostream& out,
                          const LoadGenReport& report) const {
  const TransportStats& t = transport_->stats();
  out << "files_inserted=" << report.files_inserted << "/"
      << report.files_requested << " gets_issued=" << report.gets_issued
      << " gets_ok=" << report.gets_ok
      << " gets_failed=" << report.gets_failed << " p50_ms="
      << report.p50() * 1e3 << " p99_ms=" << report.p99() * 1e3
      << " decode_drops=" << network_.corrupted()
      << " delivered=" << network_.delivered()
      << " frames_in=" << t.frames_in << " frames_out=" << t.frames_out
      << " overflow_dropped=" << t.overflow_dropped
      << " unroutable_dropped=" << t.unroutable_dropped
      << " reconnects=" << t.reconnects << " faults=" << client_->faults()
      << "\n";
}

}  // namespace lesslog::net
