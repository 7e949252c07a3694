// wire_get_loopback — real sockets. Two `lesslog_cli serve` children run
// the unmodified peer stack for PIDs 0-511 and 512-1022 (m = 10, b = 2);
// this process is client PID 1023 and drives its own GET generator
// through net::Transport and proto::Client against 256 files. The only
// workload that crosses net: reactor, framing and syscalls, all over
// loopback.
//
// The untraced pass measures throughput in a closed loop on each of three
// deployments in turn: 64 GETs kept in flight, each completion issuing
// the next, sampled in 100 ms windows (GETs completed, and the CPU time of
// the generator thread and of both serves in that same window). The
// generator thread sets the loop's pace, so HostSpeed, sampled on it
// between windows, follows the host's speed and scales both timings.
// The traced pass measures latency in an open loop: Poisson GETs timed
// from each one's intended send time, so a generator stall is charged to
// the GETs behind it, at 25k and 75k GET/s (100k sits at the knee on a
// 4-core host), then an up-down staircase for the highest rate holding
// p99 <= 1 ms with every GET ok, no growing backlog and the generator on
// schedule, then the 75k segments again with tracing on.
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "layers.hpp"
#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/net/transport.hpp"
#include "lesslog/obs/wire_metrics.hpp"
#include "lesslog/proto/client.hpp"
#include "lesslog/proto/network.hpp"
#include "lesslog/proto/peer.hpp"
#include "lesslog/sim/engine.hpp"
#include "lesslog/util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace lesslog::benchmark {

namespace {

constexpr int kM = 10;
constexpr int kB = 2;
constexpr std::uint32_t kClientPid = 1023;
constexpr int kFiles = 256;
constexpr double kLatencyLimitUs = 1000.0;  ///< p99 limit for max_rate_ok
/// Generator-bound above this p99 lateness: a quarter of the latency limit.
/// Latency already counts from the intended send time, so lateness only
/// decides whether a missed limit is the generator's fault.
constexpr double kLateLimitUs = 250.0;
constexpr double kWindowS = 0.1;            ///< closed-loop sampling window
/// GETs the closed loop keeps in flight: enough that neither the
/// generator nor a serve waits for work, few enough that no GET nears
/// the client's retry timeout.
constexpr int kClosedDepth = 64;
/// GETs the closed loop issues per second of its time limit. The client
/// keeps every latency it returns, so the GET count sets the generator's
/// memory; a fixed count keeps peak RSS the same from run to run. Below
/// this rate the loop ends at its time limit instead, with fewer GETs, so
/// the rate sits under the slowest closed loop seen on the 4-vCPU host
/// (about 145k GET/s measured when other tenants load it most).
constexpr double kClosedGetsPerS = 100000.0;

/// An ephemeral loopback port: bound here, read back, released for a
/// child to bind (fixed ports would collide with other loopback tests).
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  const bool ok =
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
          0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("cannot bind an ephemeral port");
  return ntohs(addr.sin_port);
}

using Stats = std::map<std::string, std::int64_t>;

/// One `lesslog_cli serve` child with its stdout+stderr on a pipe. It
/// ends through --duration (serve prints its stats line only on a normal
/// exit); the destructor SIGKILLs and reaps a child still running, so
/// every failure path leaves no process behind.
class ServeChild {
 public:
  ServeChild(const std::string& hosts, std::size_t self, std::uint64_t seed,
             double duration) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    const std::string self_s = std::to_string(self);
    const std::string m_s = std::to_string(kM);
    const std::string b_s = std::to_string(kB);
    // lesslog_cli reads --seed as an int.
    const std::string seed_s = std::to_string(seed & 0x7FFFFFFFu);
    const std::string duration_s = std::to_string(duration);
    std::vector<std::string> args{LESSLOG_CLI_PATH, "serve",  "--hosts",
                                  hosts,            "--self", self_s,
                                  "--m",            m_s,      "--b",
                                  b_s,              "--seed", seed_s,
                                  "--duration",     duration_s};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, LESSLOG_CLI_PATH, &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error(std::string("cannot spawn ") +
                               LESSLOG_CLI_PATH);
    }
  }
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  ~ServeChild() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// Waits up to `timeout_s` for the normal exit and returns the numeric
  /// key=value fields the child printed; nullopt when it did not exit
  /// cleanly in time (it is then killed and reaped).
  [[nodiscard]] std::optional<Stats> wait_stats(double timeout_s) {
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           seconds_since(t0) < timeout_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (done != pid_) return std::nullopt;  // the destructor kills it
    pid_ = -1;
    std::string text;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(out_fd_, buf, sizeof buf)) > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "serve child failed:\n" << text;
      return std::nullopt;
    }
    Stats stats;
    std::istringstream words(text);
    std::string word;
    while (words >> word) {
      const std::size_t eq = word.find('=');
      if (eq == std::string::npos) continue;
      char* end = nullptr;
      const long long v = std::strtoll(word.c_str() + eq + 1, &end, 10);
      if (*end == '\0') stats[word.substr(0, eq)] = v;
    }
    if (stats.count("decode_drops") == 0) return std::nullopt;
    return stats;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// One sampling window of the closed loop: the GETs completed in it, its
/// wall time, and the CPU time the generator thread and each serve
/// (schedstat) spent in it.
struct Window {
  double gets = 0.0;
  double wall_s = 0.0;
  double gen_cpu_s = 0.0;
  std::array<double, 2> serve_cpu_s{};

  [[nodiscard]] Window since(const Window& then) const {
    Window w{gets - then.gets, wall_s - then.wall_s,
             gen_cpu_s - then.gen_cpu_s, {}};
    for (std::size_t i = 0; i < w.serve_cpu_s.size(); ++i) {
      w.serve_cpu_s[i] = serve_cpu_s[i] - then.serve_cpu_s[i];
    }
    return w;
  }
  [[nodiscard]] double cpu_s() const {
    return gen_cpu_s + serve_cpu_s[0] + serve_cpu_s[1];
  }
};

/// One measured phase: open loop at a Poisson rate, or closed loop at a
/// depth of GETs in flight.
struct Phase {
  std::string name;
  double rate = 0.0;   ///< open loop: offered GETs per second
  int depth = 0;       ///< closed loop: GETs kept in flight
  std::int64_t limit = 0;  ///< closed loop: GETs to issue in all
  double start = 0.0;  ///< generator clock, seconds
  double end = 0.0;
  bool probe = false;  ///< staircase probe: abort on a runaway backlog
  bool stopped = false;
  bool closed = false;  ///< drained; late completions no longer count
  bool aborted = false;
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t completed_in_window = 0;
  std::int64_t inflight_at_end = 0;
  /// ok GETs, from the intended send time (open loop) or the issue
  /// (closed loop)
  Histogram latency_us;
  Histogram late_us;     ///< issue wall minus intended time
  std::array<std::int64_t, 64> hops{};  ///< ok GETs by hop count
  std::vector<Window> windows;  ///< closed loop: per sampling window

  [[nodiscard]] double backlog_limit() const {
    return std::max(64.0, 0.002 * rate);
  }
  [[nodiscard]] double latency(double q) const {
    return latency_us.percentile(q);
  }
  [[nodiscard]] double late_p99() const { return late_us.percentile(99.0); }
  [[nodiscard]] bool generator_bound() const {
    return late_p99() > kLateLimitUs;
  }
  /// Holds the latency limit with every GET ok and no growing backlog,
  /// without the generator falling behind its schedule.
  [[nodiscard]] bool meets_limit() const {
    return !aborted && failed == 0 && issued > 0 &&
           latency(99.0) <= kLatencyLimitUs &&
           static_cast<double>(completed_in_window) >=
               0.99 * static_cast<double>(issued) &&
           static_cast<double>(inflight_at_end) <= backlog_limit() &&
           !generator_bound();
  }
};

/// Transport-call accounting of the traced phases.
struct CallTimes {
  std::int64_t polls = 0;
  double poll_ns = 0.0;
  std::int64_t sends = 0;
  double send_ns = 0.0;
  std::int64_t run_events = 0;
  double run_ns = 0.0;
};

/// The benchmark's client PID: a Peer (reply funnel) and a Client over
/// an engine pumped against the wall clock, exactly as net::LoadGen runs
/// them, plus an open-loop Poisson GET schedule with lateness accounting.
class Generator {
 public:
  /// `record` attaches the delivery recorder: the traced pass only.
  Generator(net::HostMap hosts, std::uint64_t seed, bool record)
      : engine_(seed),
        network_(engine_, flat_network()),
        status_(util::StatusWord(kM)),
        metrics_(registry_),
        recorder_(0, kM),
        rng_(seed ^ 0x6E11ULL) {
    for (std::uint32_t p = 0; p < kClientPid; ++p) {
      status_.mutate().set_live(p);
    }
    transport_ = std::make_unique<net::Transport>(std::move(hosts), 2);
    peer_ = std::make_unique<proto::Peer>(core::Pid{kClientPid}, kB,
                                          status_.snapshot(), network_);
    client_ = std::make_unique<proto::Client>(*peer_, network_,
                                              client_config());
    client_->set_metrics(&metrics_);
    if (record) network_.add_sink(recorder_);
    network_.set_forward(
        [this](core::Pid to, double, const proto::WireBuffer& wire) {
          if (to == peer_->pid()) return false;
          if (tracing_) {
            const std::int64_t t0 = now_ns();
            (void)transport_->send(to, wire);
            calls_.send_ns += static_cast<double>(now_ns() - t0);
            ++calls_.sends;
          } else {
            (void)transport_->send(to, wire);
          }
          return true;
        });
    // Stamp arrivals with the wall clock (see LoadGen::start).
    transport_->set_frame_handler([this](const proto::WireBuffer& wire) {
      network_.deliver_at(elapsed(), wire);
    });
    peer_->attach();
    transport_->bind();
    t0_ = Clock::now();
    for (int i = 0; i < kFiles; ++i) {
      targets_.push_back(
          peer_->target_of(core::FileId{static_cast<std::uint64_t>(i) + 1}));
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return transport_->listen_port();
  }
  [[nodiscard]] double elapsed() const { return seconds_since(t0_); }
  [[nodiscard]] net::Transport& transport() { return *transport_; }
  [[nodiscard]] proto::Network& network() { return network_; }
  [[nodiscard]] const proto::Peer& peer() const { return *peer_; }
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  [[nodiscard]] const DeliveryRecorder& recorder() const { return recorder_; }
  [[nodiscard]] const CallTimes& calls() const { return calls_; }
  [[nodiscard]] const SpanLog& spans() const { return spans_; }
  /// Polls (traced or not) that dispatched at least one callback.
  [[nodiscard]] std::int64_t busy_polls() const { return busy_polls_; }
  void set_tracing(bool on) { tracing_ = on; }

  /// Connects to both serves and waits until each has connected back.
  [[nodiscard]] bool connect(std::uint16_t p0, std::uint16_t p1,
                             double timeout_s) {
    transport_->set_peer_port(0, p0);
    transport_->set_peer_port(1, p1);
    transport_->connect_all();
    return pump_until(
        [this] {
          return transport_->fully_connected() &&
                 transport_->stats().accepts >= 2;
        },
        timeout_s);
  }

  /// Places the catalog: one insert per (file, holder) the subtree view
  /// resolves, re-issued until acked. True when every copy is acked.
  [[nodiscard]] bool insert_catalog(double timeout_s) {
    struct Task {
      core::FileId file;
      core::Pid target;
      core::Pid holder;
      bool acked = false;
    };
    std::vector<Task> tasks;
    for (int i = 0; i < kFiles; ++i) {
      const core::FileId file{static_cast<std::uint64_t>(i) + 1};
      const core::Pid r = targets_[static_cast<std::size_t>(i)];
      const core::LookupTree tree(kM, r);
      const core::SubtreeView view(tree, kB);
      for (const core::Pid h : view.insertion_targets(peer_->status())) {
        tasks.push_back({file, r, h, false});
      }
    }
    std::size_t acked = 0;
    const double deadline = elapsed() + timeout_s;
    std::function<void(std::size_t)> issue = [&](std::size_t i) {
      client_->insert(tasks[i].file, tasks[i].target, tasks[i].holder,
                      [&, i](bool ok) {
                        if (ok && !tasks[i].acked) {
                          tasks[i].acked = true;
                          ++acked;
                        } else if (!ok && elapsed() < deadline) {
                          issue(i);
                        }
                      });
    };
    for (std::size_t i = 0; i < tasks.size(); ++i) issue(i);
    return pump_until([&] { return acked == tasks.size(); }, timeout_s);
  }

  /// Offers Poisson GETs at `rate` for `duration` seconds, then drains.
  Phase& open_loop(std::string name, double rate, double duration,
                   bool probe) {
    Phase& ph = begin(std::move(name), duration);
    ph.rate = rate;
    ph.probe = probe;
    schedule(ph, ph.start + rng_.exponential(rate));
    return drive(ph, {});
  }

  /// Keeps `depth` GETs in flight until `limit` GETs have been issued or
  /// `duration` seconds have passed, then drains, recording a Window every
  /// kWindowS with the `serves`' CPU time.
  Phase& closed_loop(std::string name, int depth, std::int64_t limit,
                     double duration, const std::vector<pid_t>& serves) {
    Phase& ph = begin(std::move(name), duration);
    ph.depth = depth;
    ph.limit = limit;
    engine_.at(ph.start, [this, &ph] {
      for (int i = 0; i < ph.depth; ++i) issue_closed(ph);
    });
    return drive(ph, serves);
  }

  [[nodiscard]] const std::deque<Phase>& phases() const { return phases_; }

 private:
  /// A retry timer stays queued until it fires, answered or not, so the
  /// queue holds rate x timeout of them: at 200k GET/s the default 0.25 s
  /// would keep 50k timers, and the generator's memory would follow its
  /// rate. Loopback replies take under 2 ms; 50 ms still leaves room.
  static proto::ClientConfig client_config() {
    proto::ClientConfig cfg;
    cfg.timeout = 0.05;
    return cfg;
  }

  static proto::NetworkConfig flat_network() {
    proto::NetworkConfig cfg;
    cfg.base_latency = 0.0;
    cfg.jitter = 0.0;
    return cfg;
  }

  Phase& begin(std::string name, double duration) {
    Phase& ph = phases_.emplace_back();
    ph.name = std::move(name);
    ph.start = elapsed() + 0.001;
    ph.end = ph.start + duration;
    return ph;
  }

  /// Pumps until the phase ends, sampling a Window every kWindowS when
  /// `serves` are given, then drains for up to a second.
  Phase& drive(Phase& ph, const std::vector<pid_t>& serves) {
    double next_sample = ph.start;
    Window then;
    while (elapsed() < ph.end && !ph.aborted &&
           (ph.depth == 0 || ph.issued < ph.limit)) {
      pump();
      if (!serves.empty() && elapsed() >= next_sample) {
        Window now{static_cast<double>(ph.ok), elapsed(), thread_cpu_s(), {}};
        for (std::size_t i = 0; i < serves.size(); ++i) {
          now.serve_cpu_s.at(i) = read_proc(serves[i]).value().cpu_s;
        }
        if (next_sample > ph.start) ph.windows.push_back(now.since(then));
        then = now;
        next_sample += kWindowS;
        host_speed().sample();
      }
    }
    ph.stopped = true;
    ph.inflight_at_end = inflight_;
    (void)pump_until([this] { return inflight_ == 0; }, 1.0);
    ph.failed += inflight_;  // still pending at the drain deadline
    ph.closed = true;
    return ph;
  }

  void schedule(Phase& ph, double at) {
    engine_.at(at, [this, &ph, at] { issue(ph, at); });
  }

  void issue(Phase& ph, double intended) {
    if (ph.stopped || intended >= ph.end) return;
    ph.late_us.add(1e6 * (elapsed() - intended));
    const std::size_t pick = rng_.bounded(kFiles);
    const std::uint64_t seq = gets_++;
    const bool sampled = tracing_ && seq % DeliveryRecorder::kSpanSample == 0;
    const std::int64_t issued_ns = sampled ? now_ns() : 0;
    ++ph.issued;
    ++inflight_;
    client_->get(core::FileId{pick + 1}, targets_[pick],
                 [this, &ph, seq, sampled, issued_ns,
                  intended](const proto::GetResult& r) {
                   --inflight_;
                   if (sampled) span(seq, intended, issued_ns, r);
                   if (!ph.closed) record(ph, r);
                 });
    if (ph.probe &&
        static_cast<double>(inflight_) > 4.0 * ph.backlog_limit()) {
      ph.aborted = true;  // a runaway backlog: the probe has failed
      return;
    }
    schedule(ph, intended + rng_.exponential(ph.rate));
  }

  /// Closed loop: each completion before the phase stops issues the next.
  void issue_closed(Phase& ph) {
    const std::size_t pick = rng_.bounded(kFiles);
    ++ph.issued;
    ++inflight_;
    client_->get(core::FileId{pick + 1}, targets_[pick],
                 [this, &ph](const proto::GetResult& r) {
                   --inflight_;
                   if (ph.closed) return;
                   record(ph, r);
                   if (!ph.stopped && ph.issued < ph.limit) issue_closed(ph);
                 });
  }

  void record(Phase& ph, const proto::GetResult& r) {
    if (r.ok) {
      ++ph.ok;
      ph.latency_us.add(1e6 * r.latency);
      ++ph.hops[static_cast<std::size_t>(std::clamp(r.hops, 0, 63))];
    } else {
      ++ph.failed;
    }
    if (elapsed() <= ph.end) ++ph.completed_in_window;
  }

  void span(std::uint64_t seq, double intended, std::int64_t issued_ns,
            const proto::GetResult& r) {
    std::ostringstream line;
    line.precision(17);
    line << "{\"span\": \"get\", \"seq\": " << seq
         << ", \"intended_s\": " << intended
         << ", \"issue_ns\": " << issued_ns << ", \"done_ns\": " << now_ns()
         << ", \"ok\": " << (r.ok ? "true" : "false")
         << ", \"hops\": " << r.hops << "}";
    spans_.add(line.str());
  }

  /// One turn of the spin loop: due engine events, then one poll.
  void pump() {
    if (!tracing_) {
      engine_.run_before(elapsed());
      if (transport_->poll(0) > 0) ++busy_polls_;
      return;
    }
    const std::int64_t t0 = now_ns();
    const std::int64_t ran = engine_.run_before(elapsed());
    const std::int64_t t1 = now_ns();
    const int dispatched = transport_->poll(0);
    const std::int64_t t2 = now_ns();
    if (dispatched > 0) ++busy_polls_;
    calls_.run_events += ran;
    calls_.run_ns += static_cast<double>(t1 - t0);
    calls_.poll_ns += static_cast<double>(t2 - t1);
    ++calls_.polls;
  }

  template <typename Done>
  bool pump_until(Done&& done, double timeout_s) {
    const double deadline = elapsed() + timeout_s;
    while (!done() && elapsed() < deadline) pump();
    engine_.run_before(elapsed());
    return done();
  }

  sim::Engine engine_;
  proto::Network network_;
  util::CowStatus status_;
  obs::Registry registry_;
  obs::WireMetrics metrics_;
  DeliveryRecorder recorder_;
  util::Rng rng_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<proto::Peer> peer_;
  std::unique_ptr<proto::Client> client_;
  std::vector<core::Pid> targets_;
  std::deque<Phase> phases_;
  Clock::time_point t0_;
  std::int64_t inflight_ = 0;
  std::uint64_t gets_ = 0;
  std::int64_t busy_polls_ = 0;
  bool tracing_ = false;
  CallTimes calls_;
  SpanLog spans_;  ///< sampled GET spans of the traced phases
};

/// The phase plan. Segment and probe lengths are fixed; the run length
/// sets only how long the untraced closed loops run, so a longer run
/// gathers more windows of the same kind. The untraced pass deploys fresh
/// serves three times, one after another: the closed loop's rate moves by
/// a quarter with the vCPUs the three processes land on and with what
/// other tenants run there, and three deployments sample more of both
/// than one. The traced pass interleaves its fixed rates and probes in
/// cycles (25k segment, 75k segment, six probes) so that each kind of
/// measurement samples the whole pass rather than one stretch of it, then
/// runs one traced 75k segment per cycle: 20 s in all.
struct Schedule {
  int deployments = 3;  ///< untraced
  double warmup = 0.3;
  double closed = 0.0;  ///< untraced: closed-loop seconds per deployment
  double segment = 0.5;
  double probe = 0.4;
  int cycles = 5;
  int probes_per_cycle = 6;

  /// Seconds of GET traffic in one deployment.
  [[nodiscard]] double traffic_s(bool traced) const {
    return warmup + (traced ? cycles * (3.0 * segment +
                                        probes_per_cycle * probe)
                            : closed);
  }
};

/// A deployment's serves live this much longer than its traffic: set-up
/// before it, the drain after it.
constexpr double kServeMarginS = 1.5;

Schedule schedule_for(const RunArgs& args) {
  Schedule s;
  if (args.smoke) {
    s.deployments = 1;
    s.warmup = 0.2;
    s.closed = 1.0;
    s.segment = 0.15;
    s.probe = 0.1;
    s.cycles = 2;
    s.probes_per_cycle = 3;
    return s;
  }
  s.closed = args.seconds / s.deployments - s.warmup - kServeMarginS;
  return s;
}

/// The highest offered rate that meets the limit, found by a transformed
/// up-down staircase (Levitt's 1-up-2-down rule): step the rate up after
/// two consecutive probes meet the limit and down after one misses, so
/// the walk settles where a probe meets the limit 71% of the time. A
/// single probe's verdict is noisy on a shared host; the staircase uses
/// every verdict instead of letting one unlucky probe steer a bisection.
class Staircase {
 public:
  [[nodiscard]] double rate() const noexcept { return rate_; }

  void record(bool met) {
    int dir = 0;
    if (!met) {
      dir = -1;
      met_in_row_ = 0;
    } else {
      best_met_ = std::max(best_met_, rate_);
      if (++met_in_row_ == 2) {
        dir = 1;
        met_in_row_ = 0;
      }
    }
    if (dir == 0) return;
    if (last_dir_ != 0 && dir != last_dir_) {
      reversals_.push_back(rate_);
      if (reversals_.size() == 2) step_ = 1.04;
    }
    last_dir_ = dir;
    rate_ = dir > 0 ? rate_ * step_ : rate_ / step_;
  }

  /// The geometric mean of the rates at the reversals after the first
  /// two; the best rate that met the limit if the walk never settled.
  [[nodiscard]] double estimate() const {
    if (reversals_.size() < 4) return best_met_;
    double log_sum = 0.0;
    for (std::size_t i = 2; i < reversals_.size(); ++i) {
      log_sum += std::log(reversals_[i]);
    }
    return std::exp(log_sum / static_cast<double>(reversals_.size() - 2));
  }

 private:
  double rate_ = 100000.0;
  double step_ = 1.10;  ///< 4% once the walk has turned twice
  double best_met_ = 0.0;
  int met_in_row_ = 0;
  int last_dir_ = 0;
  std::vector<double> reversals_;
};

/// Everything one deployment (two serves plus the generator) measured.
struct Deployment {
  std::unique_ptr<Generator> gen;
  std::vector<std::unique_ptr<ServeChild>> serves;
  Clock::time_point spawned;
  double serve_life = 0.0;
  double spawn_s = 0.0;
  double mesh_s = 0.0;
  double catalog_s = 0.0;
  [[nodiscard]] double setup_s() const { return spawn_s + mesh_s + catalog_s; }
  [[nodiscard]] double serve_left() const {
    return serve_life - seconds_since(spawned);
  }
};

/// spawn -> mesh -> every insert acked; serves live `serve_life` seconds.
std::unique_ptr<Deployment> deploy(std::uint64_t seed, double serve_life,
                                   bool traced, Result& result) {
  auto d = std::make_unique<Deployment>();
  const Clock::time_point t0 = Clock::now();
  net::HostMap hosts;
  hosts.add({0, 511, "127.0.0.1", 0, false});
  hosts.add({512, kClientPid - 1, "127.0.0.1", 0, false});
  hosts.add({kClientPid, kClientPid, "127.0.0.1", 0, true});
  d->gen = std::make_unique<Generator>(hosts, seed, traced);
  const std::uint16_t p0 = free_port();
  const std::uint16_t p1 = free_port();
  std::ostringstream text;
  text << "serve:0-511:127.0.0.1:" << p0 << ";serve:512-" << kClientPid - 1
       << ":127.0.0.1:" << p1 << ";client:" << kClientPid
       << ":127.0.0.1:" << d->gen->port();
  d->spawned = Clock::now();
  d->serve_life = serve_life;
  for (std::size_t self = 0; self < 2; ++self) {
    d->serves.push_back(std::make_unique<ServeChild>(
        text.str(), self, seed + self, serve_life));
  }
  d->spawn_s = seconds_since(t0);
  Clock::time_point t1 = Clock::now();
  const bool meshed = d->gen->connect(p0, p1, 5.0);
  d->mesh_s = seconds_since(t1);
  t1 = Clock::now();
  const bool placed = meshed && d->gen->insert_catalog(5.0);
  d->catalog_s = seconds_since(t1);
  result.gate(meshed, "the generator and both serves are connected");
  result.gate(placed, "every catalog copy is acked");
  return d;
}

/// Waits for both serves' normal exit and checks their drop counters.
std::vector<Stats> retire(Deployment& d, Result& result) {
  std::vector<Stats> out;
  for (std::size_t i = 0; i < d.serves.size(); ++i) {
    const std::optional<Stats> s =
        d.serves[i]->wait_stats(std::max(0.0, d.serve_left()) + 3.0);
    const std::string who = "serve " + std::to_string(i);
    result.gate(s.has_value(), who + " exited normally with its stats line");
    if (!s) continue;
    for (const char* key :
         {"decode_drops", "overflow_dropped", "unroutable_dropped"}) {
      const auto it = s->find(key);
      result.gate(it != s->end() && it->second == 0,
                  who + ": " + key + " == 0");
    }
    out.push_back(*s);
  }
  const net::TransportStats& t = d.gen->transport().stats();
  result.gate(t.overflow_dropped == 0 && t.unroutable_dropped == 0 &&
                  d.gen->network().corrupted() == 0,
              "generator: no frame dropped or corrupted");
  return out;
}

void report_phase(const Phase& ph, Result& result) {
  std::cout << ph.name << ": ";
  if (ph.depth > 0) {
    std::cout << ph.depth << " in flight";
  } else {
    std::cout << "offered " << ph.rate << " GET/s";
  }
  std::cout << ", issued " << ph.issued << ", ok " << ph.ok << ", failed "
            << ph.failed << ", p50 " << ph.latency(50.0) << " us, p99 "
            << ph.latency(99.0) << " us, p99.9 " << ph.latency(99.9) << " us";
  if (ph.depth == 0) {
    std::cout << ", lateness p99 " << ph.late_p99()
              << " us, in flight at end " << ph.inflight_at_end
              << (ph.aborted ? ", aborted on backlog" : "")
              << (ph.meets_limit() ? " -> meets the limit" : " -> misses");
  }
  std::cout << "\n";
  result.attempted += ph.issued;
  result.failed += ph.failed;
}

/// Serve-side /proc counters, summed over both children.
ProcStats serve_proc(const Deployment& d) {
  ProcStats sum;
  for (const auto& s : d.serves) {
    const std::optional<ProcStats> p = read_proc(s->pid());
    if (!p) throw std::runtime_error("cannot read a serve's /proc entry");
    sum.cpu_s += p->cpu_s;
    sum.syscalls += p->syscalls;
    sum.ctxsw += p->ctxsw;
    sum.peak_rss_mb += p->peak_rss_mb;
  }
  return sum;
}

/// Every segment at one fixed rate, merged: GETs, latency and lateness
/// histograms, and the serves' CPU time and context switches over the
/// segments.
struct RateTotals {
  explicit RateTotals(double r) : rate(r) {}

  void add(const Phase& ph, const ProcStats& before, const ProcStats& after) {
    issued += ph.issued;
    ok += ph.ok;
    failed += ph.failed;
    latency_us.merge(ph.latency_us);
    late_us.merge(ph.late_us);
    wall_s += ph.end - ph.start;
    serve_cpu_s += after.cpu_s - before.cpu_s;
    serve_ctxsw += after.ctxsw - before.ctxsw;
  }

  double rate;
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  Histogram latency_us;
  Histogram late_us;
  double wall_s = 0.0;
  double serve_cpu_s = 0.0;
  std::int64_t serve_ctxsw = 0;
};

void check_rate(const std::string& name, const RateTotals& t,
                Result& result) {
  result.gate(t.ok == t.issued && t.failed == 0, name + ": every GET ok");
  result.detail("net.gen_lateness_us.p99." + name, t.late_us.percentile(99.0),
                "us");
  if (t.late_us.percentile(99.0) > kLateLimitUs) {
    std::cout << "note: " << name
              << " ran generator-bound; its latencies include the "
                 "generator's delay\n";
  }
}

/// Gates a closed loop: every GET ok, and windows recorded.
void check_closed(const Phase& ph, Result& result) {
  result.gate(ph.ok + ph.failed == ph.issued && ph.failed == 0,
              ph.name + ": every GET ok");
  result.gate(!ph.windows.empty(), ph.name + ": sampled");
}

/// The untraced pass: deployments one after another, each a warm-up and
/// a closed loop. ops_per_s and cpu_us_per_op are each the median over
/// every window of a quantity measured within one window: GETs completed
/// per second, and the CPU time of generator and serves together per GET;
/// both are then scaled by HostSpeed, sampled on the generator thread.
void run_closed(const RunArgs& args, const Schedule& sch, Result& result) {
  std::vector<double> setups;
  std::vector<double> rate;
  std::vector<double> cpu;
  double serve_peak_mb = 0.0;
  Histogram latency_us;
  for (int i = 0; i < sch.deployments; ++i) {
    // A failed set-up returns at once: its pending inserts must never be
    // pumped again, and the deployment's destructor kills the children.
    const std::unique_ptr<Deployment> d =
        deploy(8 * args.seed + static_cast<std::uint64_t>(i),
               sch.traffic_s(false) + kServeMarginS, false, result);
    if (!result.correct()) return;
    setups.push_back(d->setup_s());
    std::cout << "deployment " << i + 1 << " set-up: spawn " << d->spawn_s
              << " s, mesh " << d->mesh_s << " s, catalog " << d->catalog_s
              << " s\n";
    Generator& gen = *d->gen;
    report_phase(gen.open_loop("warm-up", 25000.0, sch.warmup, false),
                 result);
    const Phase& closed = gen.closed_loop(
        "closed." + std::to_string(i + 1), kClosedDepth,
        static_cast<std::int64_t>(kClosedGetsPerS * sch.closed), sch.closed,
        {d->serves[0]->pid(), d->serves[1]->pid()});
    report_phase(closed, result);
    check_closed(closed, result);
    for (const Window& w : closed.windows) {
      rate.push_back(w.gets / w.wall_s);
      cpu.push_back(w.cpu_s() / w.gets);
    }
    latency_us.merge(closed.latency_us);
    serve_peak_mb = std::max(serve_peak_mb, serve_proc(*d).peak_rss_mb);
    retire(*d, result);
  }
  const HostSpeed& host = host_speed();
  const double slowdown = host.slowdown();
  result.end_to_end("setup_s", median(setups), "s");
  result.end_to_end("peak_rss_mb",
                    read_proc().value().peak_rss_mb + serve_peak_mb, "MB");
  result.end_to_end("ops_per_s", median(rate) * slowdown, "1/s");
  result.end_to_end("cpu_us_per_op", 1e6 * median(cpu) / slowdown, "us");
  host.report(result);
  result.detail("ops_per_s.measured", median(rate), "1/s");
  result.detail("cpu_us_per_op.measured", 1e6 * median(cpu), "us");
  result.detail("rss.generator_mb", read_proc().value().peak_rss_mb, "MB");
  result.detail("rss.serves_mb", serve_peak_mb, "MB");
  result.detail("closed.windows", static_cast<double>(rate.size()), "count");
  result.detail("closed.get_p50_us", latency_us.percentile(50.0), "us");
  result.detail("closed.get_p99_us", latency_us.percentile(99.0), "us");
}

}  // namespace

void run_wire(const RunArgs& args, Result& result) {
  const Schedule sch = schedule_for(args);
  if (!args.trace) {
    std::cout << "wire: m=" << kM << " b=" << kB << ", " << sch.deployments
              << " deployments, each a closed loop of " << kClosedDepth
              << " GETs in flight for up to " << sch.closed << " s, seed "
              << args.seed << "\n";
    run_closed(args, sch, result);
    return;
  }
  std::cout << "wire: m=" << kM << " b=" << kB << ", " << sch.cycles
            << " cycles of 25k and 75k GET/s segments of " << sch.segment
            << " s and " << sch.probes_per_cycle << " staircase probes of "
            << sch.probe << " s, seed " << args.seed << "\n";
  const std::unique_ptr<Deployment> d =
      deploy(args.seed, sch.traffic_s(true) + kServeMarginS, true, result);
  if (!result.correct()) return;
  std::cout << "set-up: spawn " << d->spawn_s << " s, mesh " << d->mesh_s
            << " s, catalog " << d->catalog_s << " s\n";
  Generator& gen = *d->gen;
  report_phase(gen.open_loop("warm-up", 25000.0, sch.warmup, false), result);

  RateTotals r25(25000.0);
  RateTotals r75(75000.0);
  RateTotals traced(75000.0);
  Staircase stairs;
  int probes = 0;
  const auto segment = [&](RateTotals& t, const std::string& name) {
    const ProcStats before = serve_proc(*d);
    const Phase& ph = gen.open_loop(name, t.rate, sch.segment, false);
    t.add(ph, before, serve_proc(*d));
    report_phase(ph, result);
  };
  for (int c = 1; c <= sch.cycles; ++c) {
    segment(r25, "r25k." + std::to_string(c));
    segment(r75, "r75k." + std::to_string(c));
    for (int p = 0; p < sch.probes_per_cycle &&
                    d->serve_left() > sch.probe + 1.5;
         ++p) {
      const Phase& ph = gen.open_loop("probe " + std::to_string(++probes),
                                      std::round(stairs.rate()), sch.probe,
                                      true);
      report_phase(ph, result);
      stairs.record(ph.meets_limit());
    }
  }
  gen.set_tracing(true);
  for (int c = 1; c <= sch.cycles; ++c) {
    segment(traced, "r75k.traced." + std::to_string(c));
  }
  gen.set_tracing(false);
  const ProcStats end = serve_proc(*d);
  const std::vector<Stats> serve_stats = retire(*d, result);
  check_rate("r25k", r25, result);
  check_rate("r75k", r75, result);
  result.gate(stairs.estimate() > 0.0, "some offered rate meets the limit");

  std::int64_t serve_frames = 0;
  std::int64_t serve_frames_out = 0;
  for (const Stats& s : serve_stats) {
    serve_frames += s.at("frames_in") + s.at("frames_out");
    serve_frames_out += s.at("frames_out");
  }
  const net::TransportStats& t = gen.transport().stats();
  double all_gets = 0.0;
  std::vector<double> hops;
  for (const Phase& ph : gen.phases()) {
    all_gets += static_cast<double>(ph.issued);
    for (std::size_t h = 0; h < ph.hops.size(); ++h) {
      hops.insert(hops.end(), static_cast<std::size_t>(ph.hops[h]),
                  static_cast<double>(h));
    }
  }
  const CallTimes& calls = gen.calls();
  const obs::Snapshot snap = gen.registry().snapshot();

  LayerCounts counts;
  counts.events = static_cast<double>(calls.run_events);
  counts.hops_p50 = percentile_sorted(hops, 50.0);
  counts.hops_p99 = percentile_sorted(hops, 99.0);
  merge_recorders({&gen.recorder()}, counts, result);
  counts.client_retries =
      static_cast<double>(*snap.counter("client.retries"));
  counts.client_timeouts =
      static_cast<double>(*snap.counter("client.timeouts"));
  counts.msgs_per_get =
      static_cast<double>(serve_frames_out + t.frames_out) / all_gets;
  counts.frames_per_get = counts.msgs_per_get;
  counts.gen_frames_per_poll = static_cast<double>(t.frames_in) /
                               static_cast<double>(gen.busy_polls());
  for (const Stats& s : serve_stats) {
    counts.drops += static_cast<double>(s.at("decode_drops") +
                                        s.at("overflow_dropped") +
                                        s.at("unroutable_dropped"));
  }
  counts.drops += static_cast<double>(t.overflow_dropped +
                                      t.unroutable_dropped +
                                      gen.network().corrupted());
  counts.serve_syscalls_per_frame = static_cast<double>(end.syscalls) /
                                    static_cast<double>(serve_frames);
  counts.serve_ctxsw_per_kget =
      1e3 * static_cast<double>(r25.serve_ctxsw + r75.serve_ctxsw) /
      static_cast<double>(r25.ok + r75.ok);
  counts.serve_cpu_util_r25k = r25.serve_cpu_s / r25.wall_s;
  counts.serve_cpu_util_r75k = r75.serve_cpu_s / r75.wall_s;
  counts.gen_late_frac =
      static_cast<double>(r25.late_us.above(kLateLimitUs) +
                          r75.late_us.above(kLateLimitUs)) /
      static_cast<double>(r25.late_us.count() + r75.late_us.count());
  counts.setup_construct_frac = (d->spawn_s + d->mesh_s) / d->setup_s();
  const double plain_p50 = r75.latency_us.percentile(50.0);
  counts.trace_overhead_frac =
      (traced.latency_us.percentile(50.0) - plain_p50) / plain_p50;
  counts.get_ok_frac = static_cast<double>(r25.ok + r75.ok) /
                       static_cast<double>(r25.issued + r75.issued);
  counts.get_p50_us_r25k = r25.latency_us.percentile(50.0);
  counts.get_p99_us_r25k = r25.latency_us.percentile(99.0);
  counts.get_p50_us_r75k = plain_p50;
  counts.get_p99_us_r75k = r75.latency_us.percentile(99.0);
  counts.get_p999_us_r75k = r75.latency_us.percentile(99.9);
  counts.max_rate_ok = stairs.estimate();
  counts.serve_cpu_us_per_get_r25k =
      1e6 * r25.serve_cpu_s / static_cast<double>(r25.ok);

  LayerInputs in;
  in.m = kM;
  in.status = &gen.peer().status();
  in.mix = gen.recorder().mix;
  in.seed = args.seed;
  const LayerCosts costs = measure_layers(in);

  Ledger ledger;
  ledger.add("net.transport_poll", static_cast<double>(calls.polls),
             calls.poll_ns / static_cast<double>(calls.polls));
  ledger.add("net.transport_send", static_cast<double>(calls.sends),
             calls.send_ns / static_cast<double>(calls.sends));
  // Sends happen inside run_before (a GET's issue event sends it), so
  // the engine row is run_before's self time.
  ledger.add("sim.engine_run_before", static_cast<double>(calls.polls),
             (calls.run_ns - calls.send_ns) /
                 static_cast<double>(calls.polls));
  counts.explained_frac = ledger.print(
      "wire_get_loopback generator, traced 75k segments", traced.wall_s);
  report_layers(costs, counts, result);
  result.detail("net.gen_send_ns",
                calls.send_ns / static_cast<double>(calls.sends), "ns");
  result.detail("net.gen_poll_ns",
                calls.poll_ns / static_cast<double>(calls.polls), "ns");
  result.detail("get_p50_us.r75k.traced", traced.latency_us.percentile(50.0),
                "us");
  result.detail("setup.spawn_s", d->spawn_s, "s");
  result.detail("setup.mesh_s", d->mesh_s, "s");
  result.detail("setup.catalog_s", d->catalog_s, "s");
  result.gate(gen.spans().write(args.out_dir + "/spans.wire_get_loopback.seed" +
                              std::to_string(args.seed) + ".jsonl"),
              "spans written");
}

}  // namespace lesslog::benchmark
