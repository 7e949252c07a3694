// The epoll reactor: dispatch, level-triggered re-arm, mask changes, and
// the mid-dispatch-removal guarantee, exercised with pipes (no sockets).
#include "lesslog/net/reactor.hpp"

#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <array>
#include <chrono>

namespace lesslog::net {
namespace {

using namespace std::chrono_literals;

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  [[nodiscard]] int rd() const { return fds[0]; }
  [[nodiscard]] int wr() const { return fds[1]; }
};

TEST(Reactor, DispatchesReadableFds) {
  Reactor r;
  Pipe p;
  int calls = 0;
  r.add(p.rd(), EPOLLIN, [&](std::uint32_t events) {
    EXPECT_NE(events & EPOLLIN, 0u);
    ++calls;
    char c;
    EXPECT_EQ(::read(p.rd(), &c, 1), 1);
  });
  EXPECT_EQ(r.poll(0ms), 0);  // nothing pending
  ASSERT_EQ(::write(p.wr(), "x", 1), 1);
  EXPECT_EQ(r.poll(100ms), 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.poll(0ms), 0);  // drained: level-trigger goes quiet
}

TEST(Reactor, LevelTriggeredRearmsUntilDrained) {
  Reactor r;
  Pipe p;
  int calls = 0;
  ASSERT_EQ(::write(p.wr(), "abc", 3), 3);
  r.add(p.rd(), EPOLLIN, [&](std::uint32_t) {
    ++calls;
    char c;
    EXPECT_EQ(::read(p.rd(), &c, 1), 1);  // drain ONE byte per dispatch
  });
  // Three polls, three dispatches: undrained readiness re-fires.
  EXPECT_EQ(r.poll(100ms), 1);
  EXPECT_EQ(r.poll(100ms), 1);
  EXPECT_EQ(r.poll(100ms), 1);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(r.poll(0ms), 0);
}

TEST(Reactor, ModifySwitchesTheMask) {
  Reactor r;
  Pipe p;
  int calls = 0;
  ASSERT_EQ(::write(p.wr(), "x", 1), 1);
  r.add(p.rd(), 0, [&](std::uint32_t) { ++calls; });  // masked off
  EXPECT_EQ(r.poll(0ms), 0);
  r.modify(p.rd(), EPOLLIN);
  EXPECT_EQ(r.poll(100ms), 1);
  EXPECT_EQ(calls, 1);
}

TEST(Reactor, RemoveIsIdempotentAndStopsDispatch) {
  Reactor r;
  Pipe p;
  int calls = 0;
  r.add(p.rd(), EPOLLIN, [&](std::uint32_t) { ++calls; });
  ASSERT_EQ(::write(p.wr(), "x", 1), 1);
  EXPECT_TRUE(r.watched(p.rd()));
  r.remove(p.rd());
  r.remove(p.rd());  // second remove: no-op
  EXPECT_FALSE(r.watched(p.rd()));
  EXPECT_EQ(r.poll(0ms), 0);
  EXPECT_EQ(calls, 0);
}

// A callback that removes another ready fd mid-dispatch: the removed
// fd's callback must not run afterwards, and nothing may crash.
TEST(Reactor, CallbackMayRemoveAnotherReadyFdMidDispatch) {
  Reactor r;
  Pipe p1;
  Pipe p2;
  int runs1 = 0;
  int runs2 = 0;
  r.add(p1.rd(), EPOLLIN, [&](std::uint32_t) {
    ++runs1;
    char c;
    (void)::read(p1.rd(), &c, 1);
    r.remove(p2.rd());  // p2 is also ready this round
  });
  r.add(p2.rd(), EPOLLIN, [&](std::uint32_t) {
    ++runs2;
    char c;
    (void)::read(p2.rd(), &c, 1);
    r.remove(p1.rd());
  });
  ASSERT_EQ(::write(p1.wr(), "x", 1), 1);
  ASSERT_EQ(::write(p2.wr(), "x", 1), 1);
  (void)r.poll(100ms);
  // Exactly one of the two ran; the one it removed did not, and only
  // the removed fd left the watch set.
  EXPECT_EQ(runs1 + runs2, 1);
  EXPECT_EQ(r.watched_count(), 1u);
}

TEST(Reactor, CallbackMayRemoveItself) {
  Reactor r;
  Pipe p;
  int calls = 0;
  r.add(p.rd(), EPOLLIN, [&](std::uint32_t) {
    ++calls;
    char c;
    (void)::read(p.rd(), &c, 1);
    r.remove(p.rd());
  });
  ASSERT_EQ(::write(p.wr(), "x", 1), 1);
  EXPECT_EQ(r.poll(100ms), 1);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(::write(p.wr(), "y", 1), 1);
  EXPECT_EQ(r.poll(0ms), 0);  // gone for good
  EXPECT_EQ(calls, 1);
}

TEST(Reactor, WaitsForASubMillisecondTimeout) {
  // The timeout is kept to the nanosecond: 300 us is slept for, not
  // truncated to a zero-wait poll.
  Reactor r;
  Pipe p;
  r.add(p.rd(), EPOLLIN, [](std::uint32_t) {});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(r.poll(300us), 0);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 300us);
  EXPECT_EQ(r.wait_calls(), 1);
}

}  // namespace
}  // namespace lesslog::net
