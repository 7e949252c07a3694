// End-to-end over real sockets, in one process: two ServeHosts covering
// the PID space plus a LoadGen client, wired over loopback with
// ephemeral ports. The unmodified proto::Peer/Client stack serves the
// traffic; the gate is the transport_smoke contract — every insert
// acked, every GET ok, zero decode drops. Also the serve process's
// start-up placement, leave_spawn_cpu.
#include <gtest/gtest.h>
#include <sched.h>

#include <cstddef>
#include <initializer_list>
#include <thread>
#include <utility>
#include <vector>

#include "lesslog/net/loadgen.hpp"
#include "lesslog/net/serve.hpp"

namespace lesslog::net {
namespace {

HostMap ephemeral_map() {
  HostMap map;
  map.add(HostEntry{0, 31, "127.0.0.1", 0, false});
  map.add(HostEntry{32, 62, "127.0.0.1", 0, false});
  map.add(HostEntry{63, 63, "127.0.0.1", 0, true});
  return map;
}

TEST(ServeLoadGen, LoopbackRoundTripServesEveryGet) {
  ServeConfig sc0;
  sc0.m = 6;
  sc0.b = 2;
  sc0.hosts = ephemeral_map();
  sc0.self = 0;
  ServeConfig sc1 = sc0;
  sc1.self = 1;
  LoadGenConfig lc;
  lc.m = 6;
  lc.b = 2;
  lc.hosts = ephemeral_map();
  lc.self = 2;
  lc.files = 12;
  lc.rate = 400.0;
  lc.duration = 0.5;
  lc.setup_timeout = 20.0;

  ServeHost s0(std::move(sc0));
  ServeHost s1(std::move(sc1));
  LoadGen lg(std::move(lc));

  // Port-0 flow: bind everyone, read the real ports, cross-patch, and
  // only then let the retry ladders connect the full mesh.
  s0.start();
  s1.start();
  lg.start();
  const std::uint16_t ports[3] = {s0.transport().listen_port(),
                                  s1.transport().listen_port(),
                                  lg.transport().listen_port()};
  for (std::size_t i = 0; i < 3; ++i) {
    s0.transport().set_peer_port(i, ports[i]);
    s1.transport().set_peer_port(i, ports[i]);
    lg.transport().set_peer_port(i, ports[i]);
  }

  std::thread t0([&] { s0.run(); });
  std::thread t1([&] { s1.run(); });
  const LoadGenReport report = lg.run();
  s0.stop();
  s1.stop();
  t0.join();
  t1.join();

  EXPECT_EQ(report.files_inserted, report.files_requested);
  EXPECT_GT(report.gets_issued, 0);
  EXPECT_EQ(report.gets_ok, report.gets_issued);
  EXPECT_EQ(report.gets_failed, 0);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.latencies.size(),
            static_cast<std::size_t>(report.gets_ok));
  EXPECT_GT(report.p50(), 0.0);
  EXPECT_LE(report.p50(), report.p99());

  // Every socket byte decoded: zero counted decode drops anywhere.
  EXPECT_EQ(s0.network().corrupted(), 0);
  EXPECT_EQ(s1.network().corrupted(), 0);
  EXPECT_EQ(lg.network().corrupted(), 0);
  // Real traffic actually crossed the wire in both directions.
  EXPECT_GT(s0.transport().stats().frames_in, 0);
  EXPECT_GT(s1.transport().stats().frames_in, 0);
  EXPECT_GT(lg.transport().stats().frames_in, 0);
  EXPECT_EQ(s0.transport().stats().overflow_dropped, 0);
  EXPECT_EQ(s1.transport().stats().overflow_dropped, 0);
  EXPECT_EQ(lg.transport().stats().overflow_dropped, 0);
}

TEST(ServeConfigValidation, RejectsNonsense) {
  ServeConfig cfg;
  cfg.hosts = ephemeral_map();
  cfg.self = 2;  // client entry: not servable
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.self = 9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.self = 0;
  cfg.m = 5;  // hi=63 exceeds 2^5
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.m = 6;
  cfg.b = 6;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.b = 2;
  EXPECT_NO_THROW(cfg.validate());
}

cpu_set_t cpus_of(std::initializer_list<int> list) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : list) CPU_SET(static_cast<std::size_t>(c), &set);
  return set;
}

/// The first two CPUs this process may run on, or {-1, -1}.
std::pair<int, int> two_allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> found;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE && found.size() < 2; ++c) {
      if (CPU_ISSET(static_cast<std::size_t>(c), &allowed)) {
        found.push_back(c);
      }
    }
  }
  if (found.size() < 2) return {-1, -1};
  return {found[0], found[1]};
}

// Runs on its own thread: the affinity calls act on the calling thread
// only, so the test runner's thread keeps its mask.
TEST(LeaveSpawnCpu, MovesToAnotherAllowedCpuAndRestoresTheMask) {
  const std::pair<int, int> cpus = two_allowed_cpus();
  const int a = cpus.first;
  const int b = cpus.second;
  if (a < 0) GTEST_SKIP() << "needs two allowed CPUs";
  bool pinned = false;
  bool left = false;
  int before = -1;
  int after = -1;
  cpu_set_t mask_after;
  CPU_ZERO(&mask_after);
  std::thread([&] {
    const cpu_set_t only_a = cpus_of({a});
    const cpu_set_t both = cpus_of({a, b});
    // Land on `a`, then allow `b` too: the thread stays where it is.
    if (sched_setaffinity(0, sizeof only_a, &only_a) != 0) return;
    pinned = true;
    ASSERT_EQ(sched_setaffinity(0, sizeof both, &both), 0);
    before = sched_getcpu();
    left = leave_spawn_cpu();
    after = sched_getcpu();
    ASSERT_EQ(sched_getaffinity(0, sizeof mask_after, &mask_after), 0);
  }).join();
  if (!pinned) GTEST_SKIP() << "sched_setaffinity is not permitted";
  EXPECT_TRUE(left);
  EXPECT_EQ(before, a);
  EXPECT_EQ(after, b);
  const cpu_set_t both = cpus_of({a, b});
  EXPECT_TRUE(CPU_EQUAL(&mask_after, &both));
}

TEST(LeaveSpawnCpu, StaysWhenOnlyOneCpuIsAllowed) {
  const int a = two_allowed_cpus().first;
  if (a < 0) GTEST_SKIP() << "needs two allowed CPUs";
  bool pinned = false;
  bool left = true;
  int after = -1;
  cpu_set_t mask_after;
  CPU_ZERO(&mask_after);
  std::thread([&] {
    const cpu_set_t only_a = cpus_of({a});
    if (sched_setaffinity(0, sizeof only_a, &only_a) != 0) return;
    pinned = true;
    left = leave_spawn_cpu();
    after = sched_getcpu();
    ASSERT_EQ(sched_getaffinity(0, sizeof mask_after, &mask_after), 0);
  }).join();
  if (!pinned) GTEST_SKIP() << "sched_setaffinity is not permitted";
  EXPECT_FALSE(left);
  EXPECT_EQ(after, a);
  const cpu_set_t only_a = cpus_of({a});
  EXPECT_TRUE(CPU_EQUAL(&mask_after, &only_a));
}

TEST(LoadGenConfigValidation, RejectsNonsense) {
  LoadGenConfig cfg;
  cfg.hosts = ephemeral_map();
  cfg.self = 0;  // serve entry: not a client
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.self = 2;
  cfg.files = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.files = 8;
  cfg.rate = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.rate = 100.0;
  cfg.duration = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.duration = 1.0;
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace lesslog::net
