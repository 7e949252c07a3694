// Level-triggered epoll reactor: the single blocking point of a serve or
// loadgen process.
//
// Level-triggered (the epoll default) over edge-triggered on purpose: a
// handler that drains less than everything — a read capped by ring
// backpressure, a write capped by the kernel buffer — is simply called
// again on the next poll instead of wedging until new activity. The
// reactor owns no sockets and no protocol: it maps fds to callbacks and
// dispatches whatever epoll reports. Callbacks may add or remove
// fds (including their own) mid-dispatch; removal is safe because each
// dispatch re-checks registration and pins the callback it invokes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

namespace lesslog::net {

class Reactor {
 public:
  /// Invoked with the ready-event bitmask (EPOLLIN | EPOLLOUT | ...).
  using Callback = std::function<void(std::uint32_t events)>;

  /// Throws std::system_error when epoll_create1 fails.
  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers `fd` for `events`; throws std::system_error on failure.
  /// One callback per fd; re-adding an fd is a logic error (remove first).
  void add(int fd, std::uint32_t events, Callback cb);

  /// Changes the event mask of a registered fd.
  void modify(int fd, std::uint32_t events);

  /// Unregisters `fd` (no-op when not registered). Does not close it.
  void remove(int fd);

  [[nodiscard]] bool watched(int fd) const {
    return callbacks_.find(fd) != callbacks_.end();
  }
  [[nodiscard]] std::size_t watched_count() const noexcept {
    return callbacks_.size();
  }

  /// Waits up to `timeout` (zero = return immediately, negative = block)
  /// and dispatches every ready callback once. Returns the number of
  /// callbacks dispatched. The wait is exact to the nanosecond
  /// (epoll_pwait2), so a deadline less than a millisecond away is slept
  /// for rather than polled. EINTR counts as zero ready; any other error
  /// throws std::system_error.
  int poll(std::chrono::nanoseconds timeout);

  /// epoll_ctl(2) calls issued by add/modify/remove.
  [[nodiscard]] std::int64_t ctl_calls() const noexcept { return ctl_calls_; }
  /// epoll_pwait2(2) calls issued by poll.
  [[nodiscard]] std::int64_t wait_calls() const noexcept {
    return wait_calls_;
  }

 private:
  int epfd_ = -1;
  std::int64_t ctl_calls_ = 0;
  std::int64_t wait_calls_ = 0;
  /// shared_ptr so a callback that removes its own (or another) fd
  /// mid-dispatch cannot free the std::function currently executing.
  std::unordered_map<int, std::shared_ptr<Callback>> callbacks_;
};

}  // namespace lesslog::net
