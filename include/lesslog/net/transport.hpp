// Socket transport behind the proto::Network seam.
//
// A deployment is a static host map: each entry owns a contiguous PID
// range served by one process at host:port (role `serve`), or a single
// client PID driven by a loadgen process (role `client`). Every process
// runs one Transport: a listening socket for inbound frames plus one
// outgoing connection per other entry. Sends are unidirectional — the
// (A, B) ordered pair uses A's outgoing connection to B, so there is no
// connection-dedup protocol; each accepted socket is read-only.
//
// The transport moves opaque kWireSize-byte frames. It never decodes:
// inbound frames go to the frame handler (the serve host feeds them to
// Network::deliver_at, where a decode reject bumps the counted corrupted
// drop), and outbound frames are byte images the Network already
// encoded. Loss model matches the simulator's best-effort contract: a
// frame sent while the write queue is over its cap, or while the link is
// down longer than the queue absorbs, is a counted drop — the
// client/peer retry layers own recovery, exactly as they do under the
// simulated drop_probability.
//
// Writes are coalesced: send() only appends to its link's queue, and
// poll() writes every connected link's queue with one send(2) before it
// waits. A caller that alternates "run due work, then poll" therefore
// makes one send(2) per link per turn, however many frames the turn
// produced.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lesslog/core/ids.hpp"
#include "lesslog/net/backoff.hpp"
#include "lesslog/net/frame.hpp"
#include "lesslog/net/reactor.hpp"
#include "lesslog/proto/message.hpp"

namespace lesslog::net {

struct HostEntry {
  std::uint32_t lo = 0;  ///< first PID (inclusive)
  std::uint32_t hi = 0;  ///< last PID (inclusive)
  std::string host;      ///< numeric IPv4, e.g. "127.0.0.1"
  std::uint16_t port = 0;
  bool client = false;   ///< client-role entry (a loadgen's single PID)
};

/// The static deployment map, identical in every process. Text form is
/// `;`-separated entries `serve:LO-HI:HOST:PORT` / `client:PID:HOST:PORT`.
class HostMap {
 public:
  /// Throws std::invalid_argument naming the malformed piece.
  [[nodiscard]] static HostMap parse(const std::string& text);

  void add(HostEntry entry) { entries_.push_back(std::move(entry)); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const HostEntry& entry(std::size_t i) const {
    return entries_.at(i);
  }

  /// The entry index owning `pid`, or nullopt (an unmapped PID).
  [[nodiscard]] std::optional<std::size_t> owner_of(
      std::uint32_t pid) const noexcept;

  /// Patches one entry's port — the port-0 (ephemeral bind) test flow:
  /// bind every transport first, read the real ports, patch, connect.
  void set_port(std::size_t i, std::uint16_t port) {
    entries_.at(i).port = port;
  }

  /// Throws std::invalid_argument on overlap, inverted ranges, empty
  /// hosts, or a multi-PID client entry.
  void validate() const;

 private:
  std::vector<HostEntry> entries_;
};

struct TransportConfig {
  std::size_t ring_capacity = std::size_t{1} << 14;  ///< per-connection
  /// Per-link outbound queue cap in bytes. A frame that would push the
  /// queue past the cap is dropped-newest and counted — bounded memory
  /// under a stalled peer, and the retry layer treats it as wire loss.
  std::size_t write_queue_cap = std::size_t{256} << 10;
  double backoff_base = 0.05;   ///< first reconnect delay (seconds)
  double backoff_factor = 2.0;  ///< per-failure multiplier
  double backoff_cap = 2.0;     ///< reconnect delay ceiling (seconds)
};

struct TransportStats {
  std::int64_t frames_in = 0;   ///< complete frames handed to the handler
  std::int64_t frames_out = 0;  ///< frames accepted for send
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t overflow_dropped = 0;    ///< sends refused: queue over cap
  std::int64_t unroutable_dropped = 0;  ///< sends refused: PID unmapped
  std::int64_t connects = 0;            ///< successful outgoing connects
  std::int64_t reconnects = 0;  ///< connects that followed a disconnect
  std::int64_t accepts = 0;
  std::int64_t disconnects = 0;  ///< lost links (either direction)
  // Syscalls, counted in-process: /proc/<pid>/io's syscr/syscw miss
  // send(2) and epoll_ctl(2).
  std::int64_t send_calls = 0;   ///< send(2) on outgoing links
  std::int64_t readv_calls = 0;  ///< readv(2) on accepted links
  std::int64_t epoll_ctl_calls = 0;   ///< the reactor's epoll_ctl(2)
  std::int64_t epoll_wait_calls = 0;  ///< the reactor's epoll_wait(2)
};

class Transport {
 public:
  using FrameHandler = std::function<void(const proto::WireBuffer&)>;

  /// `self` is this process's entry index in `hosts`. Validates the map.
  Transport(HostMap hosts, std::size_t self, TransportConfig cfg = {});
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Sink for every reassembled inbound frame. Set before bind().
  void set_frame_handler(FrameHandler handler) {
    on_frame_ = std::move(handler);
  }

  /// Binds and listens on the self entry's port (0 = ephemeral; read the
  /// real port back with listen_port()). Throws std::system_error.
  void bind();
  [[nodiscard]] std::uint16_t listen_port() const noexcept { return port_; }

  /// Starts a non-blocking connect toward every other entry; progress and
  /// retries happen inside poll().
  void connect_all();

  /// Queues one frame toward the process owning `to`; the next poll() or
  /// flush() writes it. A frame that would push the queue past
  /// write_queue_cap flushes its link first. False when the frame was
  /// dropped (unmapped PID, or the link's queue is still over cap) — a
  /// counted best-effort loss, mirroring the simulator's drop path.
  bool send(core::Pid to, const proto::WireBuffer& wire);

  /// One reactor turn: flushes every connected link with queued bytes
  /// (see flush()), waits up to `timeout` (zero = no wait, negative =
  /// block; clamped down to the nearest reconnect deadline), dispatches
  /// ready sockets, then runs due reconnect attempts. Returns callbacks
  /// dispatched.
  int poll(std::chrono::nanoseconds timeout);
  /// poll() with the timeout in milliseconds (-1 = block).
  int poll(int timeout_ms) {
    return poll(std::chrono::milliseconds(timeout_ms));
  }

  /// Writes the queue of every connected link that has bytes queued and
  /// is not waiting for EPOLLOUT, one send(2) each. A process that stops
  /// pumping calls this last, so that its final frames leave.
  void flush();

  /// True when the outgoing link to entry `i` is established.
  [[nodiscard]] bool connected_to(std::size_t i) const;
  /// True when outgoing links to every other entry are established.
  [[nodiscard]] bool fully_connected() const;

  /// Counters, with the reactor's epoll syscall counts folded in.
  [[nodiscard]] TransportStats stats() const noexcept {
    TransportStats s = stats_;
    s.epoll_ctl_calls = reactor_.ctl_calls();
    s.epoll_wait_calls = reactor_.wait_calls();
    return s;
  }
  [[nodiscard]] const HostMap& hosts() const noexcept { return hosts_; }
  [[nodiscard]] std::size_t self() const noexcept { return self_; }
  [[nodiscard]] Reactor& reactor() noexcept { return reactor_; }

  /// Patches entry `i`'s port before connect_all() (port-0 test flow).
  void set_peer_port(std::size_t i, std::uint16_t port) {
    hosts_.set_port(i, port);
  }

  /// Closes every socket (idempotent; the destructor calls it).
  void close();

 private:
  enum class LinkState : std::uint8_t { kIdle, kConnecting, kConnected };

  /// One outgoing link (this process -> entry index). The byte queue is
  /// a vector with a consumed-prefix cursor: flush_link() writes from
  /// `queue_head`, and the vector compacts when fully drained.
  struct OutLink {
    int fd = -1;
    LinkState state = LinkState::kIdle;
    std::vector<std::uint8_t> queue;
    std::size_t queue_head = 0;
    Backoff backoff{0.05, 2.0, 2.0};
    double retry_at = 0.0;  ///< monotonic seconds; next connect attempt
    bool attempted = false;  ///< connect_all() reached this link
    bool ever_connected = false;
    /// Event mask registered with the reactor for `fd` (0 = none), so
    /// update_out_interest() issues epoll_ctl only when it changes.
    std::uint32_t interest = 0;
  };

  /// One accepted inbound connection (read-only).
  struct InConn {
    int fd = -1;
    FrameReassembler frames;
  };

  [[nodiscard]] double now_s() const;
  [[nodiscard]] std::size_t queued_bytes(const OutLink& l) const noexcept {
    return l.queue.size() - l.queue_head;
  }
  void start_connect(std::size_t index);
  void on_connect_ready(std::size_t index, std::uint32_t events);
  void on_out_readable(std::size_t index, std::uint32_t events);
  void fail_link(std::size_t index);
  /// Writes link `index`'s queue until it drains or the kernel buffer
  /// fills (then EPOLLOUT finishes the job).
  void flush_link(std::size_t index);
  /// True when link `index` is connected, has bytes queued and no
  /// EPOLLOUT pending: the links flush() and a cap-crossing send() write.
  [[nodiscard]] bool flushable(const OutLink& l) const noexcept;
  /// Registers link `index`'s fd (not yet watched) for `events`.
  void watch_link(std::size_t index, std::uint32_t events,
                  Reactor::Callback cb);
  /// Unregisters link `index`'s fd.
  void unwatch_link(std::size_t index);
  /// Sets the connected link's mask to EPOLLIN, plus EPOLLOUT while bytes
  /// are queued; a no-op when the registered mask already matches.
  void update_out_interest(std::size_t index);
  void on_accept_ready();
  void on_in_readable(int fd, std::uint32_t events);
  void close_in(int fd);

  HostMap hosts_;
  std::size_t self_;
  TransportConfig cfg_;
  Reactor reactor_;
  FrameHandler on_frame_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<OutLink> links_;  ///< parallel to hosts_ entries
  std::vector<InConn> inbound_;
  TransportStats stats_;
  std::chrono::steady_clock::time_point epoch_;  ///< now_s() anchor
};

}  // namespace lesslog::net
