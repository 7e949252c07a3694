#include "lesslog/net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace lesslog::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::uint32_t parse_u32(const std::string& s, const char* what) {
  std::uint32_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument(std::string("host map: bad ") + what +
                                " '" + s + "'");
  }
  return v;
}

}  // namespace

// ---- HostMap -------------------------------------------------------------

HostMap HostMap::parse(const std::string& text) {
  HostMap map;
  for (const std::string& piece : split(text, ';')) {
    if (piece.empty()) continue;
    const std::vector<std::string> parts = split(piece, ':');
    if (parts.size() != 4) {
      throw std::invalid_argument(
          "host map: expected role:pids:host:port, got '" + piece + "'");
    }
    HostEntry e;
    if (parts[0] == "serve") {
      e.client = false;
    } else if (parts[0] == "client") {
      e.client = true;
    } else {
      throw std::invalid_argument("host map: unknown role '" + parts[0] +
                                  "'");
    }
    const std::vector<std::string> range = split(parts[1], '-');
    if (range.size() == 1) {
      e.lo = e.hi = parse_u32(range[0], "pid");
    } else if (range.size() == 2) {
      e.lo = parse_u32(range[0], "pid range");
      e.hi = parse_u32(range[1], "pid range");
    } else {
      throw std::invalid_argument("host map: bad pid range '" + parts[1] +
                                  "'");
    }
    e.host = parts[2];
    const std::uint32_t port = parse_u32(parts[3], "port");
    if (port > 0xFFFF) {
      throw std::invalid_argument("host map: port out of range '" +
                                  parts[3] + "'");
    }
    e.port = static_cast<std::uint16_t>(port);
    map.add(std::move(e));
  }
  map.validate();
  return map;
}

std::optional<std::size_t> HostMap::owner_of(
    std::uint32_t pid) const noexcept {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (pid >= entries_[i].lo && pid <= entries_[i].hi) return i;
  }
  return std::nullopt;
}

void HostMap::validate() const {
  if (entries_.empty()) {
    throw std::invalid_argument("host map: no entries");
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const HostEntry& e = entries_[i];
    if (e.lo > e.hi) {
      throw std::invalid_argument("host map: inverted range in entry " +
                                  std::to_string(i));
    }
    if (e.client && e.lo != e.hi) {
      throw std::invalid_argument(
          "host map: client entry " + std::to_string(i) +
          " must cover exactly one PID");
    }
    if (e.host.empty()) {
      throw std::invalid_argument("host map: empty host in entry " +
                                  std::to_string(i));
    }
    for (std::size_t j = i + 1; j < entries_.size(); ++j) {
      const HostEntry& o = entries_[j];
      if (e.lo <= o.hi && o.lo <= e.hi) {
        throw std::invalid_argument(
            "host map: entries " + std::to_string(i) + " and " +
            std::to_string(j) + " overlap");
      }
    }
  }
}

// ---- Transport -----------------------------------------------------------

Transport::Transport(HostMap hosts, std::size_t self, TransportConfig cfg)
    : hosts_(std::move(hosts)),
      self_(self),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()) {
  hosts_.validate();
  if (self_ >= hosts_.size()) {
    throw std::invalid_argument("transport: self index out of range");
  }
  links_.resize(hosts_.size());
  for (OutLink& l : links_) {
    l.backoff = Backoff(cfg_.backoff_base, cfg_.backoff_factor,
                        cfg_.backoff_cap);
  }
}

Transport::~Transport() { close(); }

double Transport::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Transport::bind() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket(listen)");
  set_nonblocking(listen_fd_);
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hosts_.entry(self_).port);
  if (inet_pton(AF_INET, hosts_.entry(self_).host.c_str(),
                &addr.sin_addr) != 1) {
    throw std::invalid_argument("transport: bad self host '" +
                                hosts_.entry(self_).host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throw_errno("bind");
  }
  if (::listen(listen_fd_, 64) != 0) throw_errno("listen");
  // Read the real port back (the map may say 0 = ephemeral).
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  reactor_.add(listen_fd_, EPOLLIN,
               [this](std::uint32_t) { on_accept_ready(); });
}

void Transport::connect_all() {
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (i == self_) continue;
    start_connect(i);
  }
}

void Transport::start_connect(std::size_t index) {
  OutLink& l = links_[index];
  l.attempted = true;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(connect)");
  set_nonblocking(fd);
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hosts_.entry(index).port);
  if (inet_pton(AF_INET, hosts_.entry(index).host.c_str(),
                &addr.sin_addr) != 1) {
    close_quiet(fd);
    throw std::invalid_argument("transport: bad host '" +
                                hosts_.entry(index).host + "'");
  }
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    // Immediate refusal (no listener yet): schedule a retry.
    close_quiet(fd);
    l.fd = -1;
    l.state = LinkState::kIdle;
    l.retry_at = now_s() + l.backoff.next();
    return;
  }
  l.fd = fd;
  l.state = LinkState::kConnecting;
  watch_link(index, EPOLLOUT, [this, index](std::uint32_t events) {
    on_connect_ready(index, events);
  });
}

void Transport::watch_link(std::size_t index, std::uint32_t events,
                           Reactor::Callback cb) {
  OutLink& l = links_[index];
  assert(l.interest == 0 && "unwatch the link before re-registering it");
  reactor_.add(l.fd, events, std::move(cb));
  l.interest = events;
}

void Transport::unwatch_link(std::size_t index) {
  OutLink& l = links_[index];
  reactor_.remove(l.fd);
  l.interest = 0;
}

void Transport::on_connect_ready(std::size_t index, std::uint32_t events) {
  OutLink& l = links_[index];
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    fail_link(index);
    return;
  }
  int err = 0;
  socklen_t len = sizeof err;
  if (getsockopt(l.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    fail_link(index);
    return;
  }
  l.state = LinkState::kConnected;
  ++stats_.connects;
  if (l.ever_connected) ++stats_.reconnects;
  l.ever_connected = true;
  l.backoff.reset();
  // Swap the connect-completion callback for the steady-state one:
  // EPOLLIN detects peer close (the peer never writes on this socket);
  // EPOLLOUT only while the queue has bytes to flush.
  unwatch_link(index);
  watch_link(index, EPOLLIN | (queued_bytes(l) > 0 ? EPOLLOUT : 0u),
             [this, index](std::uint32_t ev) { on_out_readable(index, ev); });
  flush_link(index);
}

void Transport::on_out_readable(std::size_t index, std::uint32_t events) {
  OutLink& l = links_[index];
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    fail_link(index);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    // The protocol is unidirectional on this socket: readable means EOF
    // (peer closed) or an error. Drain and treat any result as a drop.
    std::uint8_t scratch[256];
    const ssize_t n = ::recv(l.fd, scratch, sizeof scratch, 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      fail_link(index);
      return;
    }
  }
  if ((events & EPOLLOUT) != 0) flush_link(index);
}

void Transport::fail_link(std::size_t index) {
  OutLink& l = links_[index];
  if (l.fd >= 0) {
    unwatch_link(index);
    close_quiet(l.fd);
    l.fd = -1;
  }
  if (l.state == LinkState::kConnected) ++stats_.disconnects;
  l.state = LinkState::kIdle;
  // Keep the queued bytes: they flush after the reconnect. The cap still
  // bounds memory; new sends over cap keep dropping-newest meanwhile.
  l.retry_at = now_s() + l.backoff.next();
}

bool Transport::flushable(const OutLink& l) const noexcept {
  return l.state == LinkState::kConnected && queued_bytes(l) > 0 &&
         (l.interest & EPOLLOUT) == 0;
}

void Transport::flush() {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (flushable(links_[i])) flush_link(i);
  }
}

void Transport::flush_link(std::size_t index) {
  OutLink& l = links_[index];
  while (queued_bytes(l) > 0) {
    ++stats_.send_calls;
    const ssize_t n =
        ::send(l.fd, l.queue.data() + l.queue_head, queued_bytes(l),
               MSG_NOSIGNAL);
    if (n > 0) {
      l.queue_head += static_cast<std::size_t>(n);
      stats_.bytes_out += n;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail_link(index);
    return;
  }
  if (queued_bytes(l) == 0) {
    l.queue.clear();
    l.queue_head = 0;
  } else if (l.queue_head > (std::size_t{64} << 10)) {
    // Compact a long-consumed prefix so the vector doesn't grow without
    // bound across partial flushes.
    l.queue.erase(l.queue.begin(),
                  l.queue.begin() +
                      static_cast<std::ptrdiff_t>(l.queue_head));
    l.queue_head = 0;
  }
  update_out_interest(index);
}

void Transport::update_out_interest(std::size_t index) {
  OutLink& l = links_[index];
  if (l.fd < 0 || l.state != LinkState::kConnected) return;
  const std::uint32_t wanted =
      EPOLLIN | (queued_bytes(l) > 0 ? EPOLLOUT : 0u);
  if (wanted == l.interest) return;  // the common drained-link send
  reactor_.modify(l.fd, wanted);
  l.interest = wanted;
}

bool Transport::send(core::Pid to, const proto::WireBuffer& wire) {
  const std::optional<std::size_t> owner = hosts_.owner_of(to.value());
  if (!owner.has_value() || *owner == self_) {
    ++stats_.unroutable_dropped;
    return false;
  }
  OutLink& l = links_[*owner];
  if (queued_bytes(l) + wire.size() > cfg_.write_queue_cap &&
      flushable(l)) {
    flush_link(*owner);  // make room before dropping anything
  }
  if (queued_bytes(l) + wire.size() > cfg_.write_queue_cap) {
    // Backpressure: drop-newest, counted. The peer/client retry layer
    // treats this exactly like simulated wire loss.
    ++stats_.overflow_dropped;
    return false;
  }
  // Only queued: poll() writes it, together with the rest of this turn's
  // frames to the same link, in one send(2).
  l.queue.insert(l.queue.end(), wire.begin(), wire.end());
  ++stats_.frames_out;
  return true;
}

int Transport::poll(std::chrono::nanoseconds timeout) {
  flush();
  // Clamp the wait to the nearest reconnect deadline so a sleeping
  // process still retries on time. Rounded up: waking before the
  // deadline would only buy another turn with nothing to do.
  const double now = now_s();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i == self_) continue;
    const OutLink& l = links_[i];
    if (l.state == LinkState::kIdle && l.fd < 0 && l.attempted) {
      const auto until = std::chrono::ceil<std::chrono::nanoseconds>(
          std::chrono::duration<double>(std::max(0.0, l.retry_at - now)));
      if (timeout.count() < 0 || until < timeout) timeout = until;
    }
  }
  const int dispatched = reactor_.poll(timeout);
  // Run due reconnects.
  const double after = now_s();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i == self_) continue;
    OutLink& l = links_[i];
    if (l.state == LinkState::kIdle && l.fd < 0 && l.attempted &&
        l.retry_at <= after) {
      start_connect(i);
    }
  }
  return dispatched;
}

bool Transport::connected_to(std::size_t i) const {
  return links_.at(i).state == LinkState::kConnected;
}

bool Transport::fully_connected() const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i == self_) continue;
    if (links_[i].state != LinkState::kConnected) return false;
  }
  return true;
}

void Transport::on_accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays up
    }
    const int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ++stats_.accepts;
    inbound_.push_back(InConn{fd, FrameReassembler(cfg_.ring_capacity)});
    reactor_.add(fd, EPOLLIN, [this, fd](std::uint32_t events) {
      on_in_readable(fd, events);
    });
  }
}

void Transport::on_in_readable(int fd, std::uint32_t events) {
  const auto it =
      std::find_if(inbound_.begin(), inbound_.end(),
                   [fd](const InConn& c) { return c.fd == fd; });
  if (it == inbound_.end()) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
    close_in(fd);
    return;
  }
  // Scatter-read into the ring's (up to two) free regions, then pop
  // every complete frame. Level-triggered epoll re-arms us if the ring
  // filled before the socket drained.
  RingBuffer& ring = it->frames.ring();
  const auto spans = ring.write_spans();
  iovec iov[2];
  int iovcnt = 0;
  for (const auto& s : spans) {
    if (s.empty()) continue;
    iov[iovcnt].iov_base = s.data();
    iov[iovcnt].iov_len = s.size();
    ++iovcnt;
  }
  if (iovcnt == 0) {
    // Ring full: drain complete frames to free space; the level-triggered
    // reactor re-fires and the next pass reads again.
    proto::WireBuffer full_wire;
    while (it->frames.next_frame(full_wire)) {
      ++stats_.frames_in;
      if (on_frame_) on_frame_(full_wire);
    }
    return;
  }
  ++stats_.readv_calls;
  const ssize_t n = ::readv(fd, iov, iovcnt);
  if (n == 0) {
    close_in(fd);
    return;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    close_in(fd);
    return;
  }
  ring.commit(static_cast<std::size_t>(n));
  stats_.bytes_in += n;
  proto::WireBuffer wire;
  while (it->frames.next_frame(wire)) {
    ++stats_.frames_in;
    if (on_frame_) on_frame_(wire);
  }
}

void Transport::close_in(int fd) {
  reactor_.remove(fd);
  close_quiet(fd);
  ++stats_.disconnects;
  inbound_.erase(std::remove_if(inbound_.begin(), inbound_.end(),
                                [fd](const InConn& c) { return c.fd == fd; }),
                 inbound_.end());
}

void Transport::close() {
  if (listen_fd_ >= 0) {
    reactor_.remove(listen_fd_);
    close_quiet(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    OutLink& l = links_[i];
    if (l.fd >= 0) {
      unwatch_link(i);
      close_quiet(l.fd);
      l.fd = -1;
    }
    l.state = LinkState::kIdle;
  }
  for (InConn& c : inbound_) {
    reactor_.remove(c.fd);
    close_quiet(c.fd);
  }
  inbound_.clear();
}

}  // namespace lesslog::net
