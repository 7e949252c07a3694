#include "lesslog/net/reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <ctime>
#include <system_error>

namespace lesslog::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Reactor::Reactor() : epfd_(epoll_create1(EPOLL_CLOEXEC)) {
  if (epfd_ < 0) throw_errno("epoll_create1");
}

Reactor::~Reactor() {
  if (epfd_ >= 0) ::close(epfd_);
}

void Reactor::add(int fd, std::uint32_t events, Callback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ++ctl_calls_;
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(ADD)");
  }
  callbacks_[fd] = std::make_shared<Callback>(std::move(cb));
}

void Reactor::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ++ctl_calls_;
  if (epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(MOD)");
  }
}

void Reactor::remove(int fd) {
  const auto it = callbacks_.find(fd);
  if (it == callbacks_.end()) return;
  // The fd may already be closed (EBADF) — deregistration still counts.
  ++ctl_calls_;
  (void)epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(it);
}

int Reactor::poll(std::chrono::nanoseconds timeout) {
  std::array<epoll_event, 64> ready;
  timespec wait{};
  if (timeout.count() > 0) {
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(timeout);
    wait.tv_sec = static_cast<time_t>(secs.count());
    wait.tv_nsec = static_cast<long>((timeout - secs).count());
  }
  ++wait_calls_;
  const int n = epoll_pwait2(epfd_, ready.data(),
                             static_cast<int>(ready.size()),
                             timeout.count() < 0 ? nullptr : &wait, nullptr);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw_errno("epoll_pwait2");
  }
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = ready[static_cast<std::size_t>(i)].data.fd;
    // An earlier callback this round may have removed this fd — skip.
    const auto it = callbacks_.find(fd);
    if (it == callbacks_.end()) continue;
    // Pin the callback: it stays alive even if the call removes the fd.
    const std::shared_ptr<Callback> cb = it->second;
    (*cb)(ready[static_cast<std::size_t>(i)].events);
    ++dispatched;
  }
  return dispatched;
}

}  // namespace lesslog::net
