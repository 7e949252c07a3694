// Socket transport state machine on the loopback: host-map parsing,
// write-queue backpressure, unroutable drops, frame delivery, and the
// reconnect/backoff ladder — all with ephemeral (port 0) listeners so
// tests never collide on fixed ports.
#include "lesslog/net/transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lesslog/util/rng.hpp"

namespace lesslog::net {
namespace {

HostMap two_nodes() {
  HostMap map;
  map.add(HostEntry{0, 31, "127.0.0.1", 0, false});
  map.add(HostEntry{32, 63, "127.0.0.1", 0, false});
  return map;
}

proto::WireBuffer some_frame(util::Rng& rng, std::uint32_t to) {
  proto::Message m;
  m.type = proto::MsgType::kGetRequest;
  m.from = core::Pid{static_cast<std::uint32_t>(rng.bounded(32))};
  m.to = core::Pid{to};
  m.file = core::FileId{rng()};
  m.request_id = rng();
  proto::WireBuffer wire{};
  proto::encode_into(m, wire);
  return wire;
}

/// Pumps both transports until `done` or ~`ms` wall milliseconds pass.
template <typename Done>
bool pump(Transport& a, Transport& b, int ms, Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    a.poll(2);
    b.poll(2);
  }
  return done();
}

TEST(HostMap, ParsesTheTextForm) {
  const HostMap map = HostMap::parse(
      "serve:0-31:127.0.0.1:4701;serve:32-62:127.0.0.1:4702;"
      "client:63:127.0.0.1:4703");
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.entry(0).lo, 0u);
  EXPECT_EQ(map.entry(0).hi, 31u);
  EXPECT_FALSE(map.entry(0).client);
  EXPECT_EQ(map.entry(1).port, 4702);
  EXPECT_TRUE(map.entry(2).client);
  EXPECT_EQ(map.entry(2).lo, 63u);
  EXPECT_EQ(map.entry(2).hi, 63u);
  EXPECT_EQ(map.owner_of(40), 1u);
  EXPECT_EQ(map.owner_of(63), 2u);
  EXPECT_EQ(map.owner_of(64), std::nullopt);
}

TEST(HostMap, RejectsMalformedText) {
  EXPECT_THROW(HostMap::parse(""), std::invalid_argument);
  EXPECT_THROW(HostMap::parse("serve:0-31:127.0.0.1"),
               std::invalid_argument);
  EXPECT_THROW(HostMap::parse("gerbil:0-31:127.0.0.1:4701"),
               std::invalid_argument);
  EXPECT_THROW(HostMap::parse("serve:0-31:127.0.0.1:99999"),
               std::invalid_argument);
  EXPECT_THROW(HostMap::parse("serve:31-0:127.0.0.1:4701"),
               std::invalid_argument);
  EXPECT_THROW(HostMap::parse("client:0-5:127.0.0.1:4701"),
               std::invalid_argument);
  // Overlapping ranges.
  EXPECT_THROW(
      HostMap::parse("serve:0-31:127.0.0.1:1;serve:31-40:127.0.0.1:2"),
      std::invalid_argument);
  for (const auto& [text, message] :
       {std::pair<std::string, std::string>{"serve:0-1-2:127.0.0.1:4701",
                                            "bad pid range"},
        {"serve:x:127.0.0.1:4701", "bad pid 'x'"},
        {"serve:0-31::4701", "empty host"}}) {
    try {
      (void)HostMap::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << text << ": " << e.what();
    }
  }
}

TEST(Transport, DeliversFramesBetweenTwoProcesses) {
  Transport a(two_nodes(), 0);
  Transport b(two_nodes(), 1);
  std::vector<proto::WireBuffer> got;
  b.set_frame_handler(
      [&](const proto::WireBuffer& w) { got.push_back(w); });
  a.bind();
  b.bind();
  a.set_peer_port(1, b.listen_port());
  b.set_peer_port(0, a.listen_port());
  a.connect_all();
  b.connect_all();
  ASSERT_TRUE(pump(a, b, 2000,
                   [&] { return a.fully_connected() && b.fully_connected(); }));
  EXPECT_EQ(a.stats().connects, 1);
  EXPECT_EQ(a.stats().reconnects, 0);

  util::Rng rng(11);
  std::vector<proto::WireBuffer> sent;
  for (int i = 0; i < 100; ++i) {
    sent.push_back(some_frame(rng, 40));
    ASSERT_TRUE(a.send(core::Pid{40}, sent.back()));
  }
  ASSERT_TRUE(pump(a, b, 2000, [&] { return got.size() == sent.size(); }));
  EXPECT_EQ(got, sent);
  EXPECT_EQ(b.stats().frames_in, 100);
  EXPECT_EQ(a.stats().frames_out, 100);
  EXPECT_EQ(a.stats().bytes_out,
            static_cast<std::int64_t>(100 * proto::kWireSize));
}

TEST(Transport, DrainedLinkSendIsOneSyscallAndNoEpollCtl) {
  // Steady state on a connected link whose queue is empty: send() only
  // queues, and the next poll writes every frame of the turn with one
  // send(2). The registered interest (EPOLLIN only) never changes, so no
  // epoll_ctl(2) rides along.
  Transport a(two_nodes(), 0);
  Transport b(two_nodes(), 1);
  std::size_t got = 0;
  b.set_frame_handler([&](const proto::WireBuffer&) { ++got; });
  a.bind();
  b.bind();
  a.set_peer_port(1, b.listen_port());
  b.set_peer_port(0, a.listen_port());
  a.connect_all();
  b.connect_all();
  ASSERT_TRUE(pump(a, b, 2000,
                   [&] { return a.fully_connected() && b.fully_connected(); }));

  util::Rng rng(17);
  constexpr int kFrames = 64;
  const TransportStats before = a.stats();
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(a.send(core::Pid{40}, some_frame(rng, 40)));
  }
  const TransportStats queued = a.stats();
  EXPECT_EQ(queued.send_calls, before.send_calls);  // nothing written yet
  EXPECT_EQ(queued.epoll_ctl_calls, before.epoll_ctl_calls);
  EXPECT_EQ(queued.epoll_wait_calls, before.epoll_wait_calls);
  EXPECT_EQ(queued.frames_out - before.frames_out, kFrames);

  a.poll(0);
  const TransportStats after = a.stats();
  EXPECT_EQ(after.send_calls - before.send_calls, 1);
  EXPECT_EQ(after.bytes_out - before.bytes_out,
            static_cast<std::int64_t>(kFrames * proto::kWireSize));
  EXPECT_EQ(after.epoll_ctl_calls - before.epoll_ctl_calls, 0);
  EXPECT_EQ(after.epoll_wait_calls - before.epoll_wait_calls, 1);

  ASSERT_TRUE(pump(a, b, 2000, [&] { return got == kFrames; }));
  EXPECT_GE(b.stats().readv_calls, 1);
  EXPECT_EQ(a.stats().send_calls, after.send_calls);  // nothing left to send
}

TEST(Transport, SendCrossingTheCapFlushesItsLinkFirst) {
  // A turn that produces more than write_queue_cap bytes for one link
  // writes the queue early instead of dropping: nothing is lost while the
  // kernel takes the bytes.
  TransportConfig cfg;
  cfg.write_queue_cap = 10 * proto::kWireSize;
  Transport a(two_nodes(), 0, cfg);
  Transport b(two_nodes(), 1);
  std::size_t got = 0;
  b.set_frame_handler([&](const proto::WireBuffer&) { ++got; });
  a.bind();
  b.bind();
  a.set_peer_port(1, b.listen_port());
  b.set_peer_port(0, a.listen_port());
  a.connect_all();
  b.connect_all();
  ASSERT_TRUE(pump(a, b, 2000,
                   [&] { return a.fully_connected() && b.fully_connected(); }));

  util::Rng rng(5);
  constexpr int kFrames = 25;
  const TransportStats before = a.stats();
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(a.send(core::Pid{40}, some_frame(rng, 40))) << i;
  }
  // Frames 11 and 21 each found a full queue and flushed it.
  EXPECT_EQ(a.stats().send_calls - before.send_calls, 2);
  EXPECT_EQ(a.stats().overflow_dropped, 0);
  ASSERT_TRUE(pump(a, b, 2000, [&] { return got == kFrames; }));
  EXPECT_EQ(a.stats().send_calls - before.send_calls, 3);
}

// The wait is exact: a link in reconnect backoff is slept for until its
// retry is due, not polled with a zero timeout through the last
// millisecond before it (whole-millisecond waits did that, at thousands
// of epoll calls per retry).
TEST(Transport, BackoffWaitIsSleptNotPolled) {
  Transport a(two_nodes(), 0);  // 50 ms first backoff, doubling
  a.bind();
  Transport probe(two_nodes(), 1);
  probe.bind();
  const std::uint16_t dead_port = probe.listen_port();
  probe.close();
  a.set_peer_port(1, dead_port);
  a.connect_all();
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::milliseconds(300)) {
    a.poll(100);
  }
  EXPECT_FALSE(a.connected_to(1));
  // Three retries (at ~50, ~150 and ~350 ms) and the 100 ms cap make
  // about ten waits; allow a few dozen.
  EXPECT_LE(a.stats().epoll_wait_calls, 36);
  EXPECT_GE(a.stats().epoll_wait_calls, 3);
}

TEST(Transport, SendToUnmappedOrSelfPidIsACountedDrop) {
  Transport a(two_nodes(), 0);
  util::Rng rng(3);
  const proto::WireBuffer wire = some_frame(rng, 200);
  EXPECT_FALSE(a.send(core::Pid{200}, wire));  // beyond every range
  EXPECT_FALSE(a.send(core::Pid{5}, wire));    // self range: not routable
  EXPECT_EQ(a.stats().unroutable_dropped, 2);
  EXPECT_EQ(a.stats().frames_out, 0);
}

TEST(Transport, WriteQueueOverCapIsDropNewest) {
  TransportConfig cfg;
  cfg.write_queue_cap = 10 * proto::kWireSize;
  Transport a(two_nodes(), 0, cfg);  // never connected: bytes just queue
  util::Rng rng(4);
  const proto::WireBuffer wire = some_frame(rng, 40);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(a.send(core::Pid{40}, wire)) << i;
  }
  EXPECT_FALSE(a.send(core::Pid{40}, wire));
  EXPECT_FALSE(a.send(core::Pid{40}, wire));
  EXPECT_EQ(a.stats().overflow_dropped, 2);
  EXPECT_EQ(a.stats().frames_out, 10);
}

// Frames queued while the peer is down flush after the link comes up —
// and the connect itself walks the backoff ladder until a listener
// appears.
TEST(Transport, QueuedFramesFlushOnceTheLinkConnects) {
  TransportConfig fast;
  fast.backoff_base = 0.01;
  fast.backoff_cap = 0.05;
  Transport a(two_nodes(), 0, fast);
  a.bind();
  // Point at a bound-then-closed ephemeral port: nothing listens there.
  Transport probe(two_nodes(), 1);
  probe.bind();
  const std::uint16_t dead_port = probe.listen_port();
  probe.close();
  a.set_peer_port(1, dead_port);
  a.connect_all();
  util::Rng rng(8);
  std::vector<proto::WireBuffer> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(some_frame(rng, 40));
    ASSERT_TRUE(a.send(core::Pid{40}, sent.back()));
  }
  // Let a few connect attempts fail against the dead port.
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::milliseconds(80)) {
    a.poll(5);
  }
  EXPECT_FALSE(a.connected_to(1));
  EXPECT_EQ(a.stats().connects, 0);

  // Now a listener appears on that very port; the retry ladder finds it.
  HostMap bmap = two_nodes();
  bmap.set_port(1, dead_port);
  Transport b(bmap, 1);
  std::vector<proto::WireBuffer> got;
  b.set_frame_handler(
      [&](const proto::WireBuffer& w) { got.push_back(w); });
  b.bind();
  ASSERT_TRUE(pump(a, b, 3000, [&] { return got.size() == sent.size(); }));
  EXPECT_EQ(got, sent);
  EXPECT_TRUE(a.connected_to(1));
  EXPECT_EQ(a.stats().connects, 1);
  EXPECT_EQ(a.stats().reconnects, 0);
}

// Kill an established link and watch the transport notice, back off,
// reconnect, and count it as a reconnect (not a first connect).
TEST(Transport, ReconnectsAfterPeerFailure) {
  TransportConfig fast;
  fast.backoff_base = 0.01;
  fast.backoff_cap = 0.05;
  Transport a(two_nodes(), 0, fast);
  a.bind();
  std::uint16_t port = 0;
  {
    HostMap bmap = two_nodes();
    Transport b(bmap, 1);
    b.bind();
    port = b.listen_port();
    a.set_peer_port(1, port);
    a.connect_all();
    ASSERT_TRUE(pump(a, b, 2000, [&] { return a.connected_to(1); }));
    EXPECT_EQ(a.stats().connects, 1);
    // b goes down with the scope (destructor closes every socket).
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (a.connected_to(1) &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(3)) {
    a.poll(5);
  }
  EXPECT_FALSE(a.connected_to(1));
  EXPECT_GE(a.stats().disconnects, 1);

  // Same port, new process: the ladder reconnects.
  HostMap bmap = two_nodes();
  bmap.set_port(1, port);
  Transport b2(bmap, 1);
  b2.bind();
  ASSERT_TRUE(pump(a, b2, 3000, [&] { return a.connected_to(1); }));
  EXPECT_EQ(a.stats().connects, 2);
  EXPECT_EQ(a.stats().reconnects, 1);

  // And traffic flows again.
  std::vector<proto::WireBuffer> got;
  b2.set_frame_handler(
      [&](const proto::WireBuffer& w) { got.push_back(w); });
  util::Rng rng(21);
  const proto::WireBuffer wire = some_frame(rng, 40);
  ASSERT_TRUE(a.send(core::Pid{40}, wire));
  ASSERT_TRUE(pump(a, b2, 2000, [&] { return !got.empty(); }));
  EXPECT_EQ(got.front(), wire);
}

// A garbage byte stream aimed at the listener must surface as frames
// for the decode layer to reject — the transport itself never asserts.
TEST(Transport, GarbageStreamSurfacesAsFramesNotCrashes) {
  Transport b(two_nodes(), 1);
  std::int64_t frames = 0;
  b.set_frame_handler([&](const proto::WireBuffer&) { ++frames; });
  b.bind();

  // Raw client socket (not a Transport) spraying arbitrary bytes.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(b.listen_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  util::Rng rng(600);
  std::vector<std::uint8_t> junk(proto::kWireSize * 7 + 11);
  for (auto& byte : junk) {
    byte = static_cast<std::uint8_t>(rng.bounded(256));
  }
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  ::close(fd);

  const auto t0 = std::chrono::steady_clock::now();
  while (frames < 7 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2)) {
    b.poll(5);
  }
  EXPECT_EQ(frames, 7);  // 7 full frames; the 11-byte tail never completes
  EXPECT_EQ(b.stats().frames_in, 7);
}

}  // namespace
}  // namespace lesslog::net
