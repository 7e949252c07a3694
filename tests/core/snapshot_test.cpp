#include "lesslog/core/snapshot.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace lesslog::core {
namespace {

System make_busy_system() {
  System sys({.m = 5, .b = 1, .seed = 9, .payload_size = 64});
  sys.bootstrap(28);
  for (std::uint64_t k = 0; k < 6; ++k) {
    const FileId f = sys.insert_key(0x5A00 + k);
    sys.replicate(f, sys.holders(f).front());
    if (k % 2 == 0) sys.update(f);
    sys.get(f, Pid{3});
  }
  sys.leave(Pid{7});
  sys.fail(Pid{19});
  sys.join();
  return sys;
}

TEST(Snapshot, RoundTripPreservesEverything) {
  System original = make_busy_system();
  std::stringstream buffer;
  save_snapshot(original, buffer);
  System restored = load_snapshot(buffer);

  EXPECT_EQ(restored.width(), original.width());
  EXPECT_EQ(restored.fault_bits(), original.fault_bits());
  EXPECT_EQ(restored.status(), original.status());
  EXPECT_EQ(restored.files(), original.files());
  EXPECT_EQ(restored.lookup_messages(), original.lookup_messages());
  EXPECT_EQ(restored.maintenance_messages(),
            original.maintenance_messages());
  EXPECT_EQ(restored.faults(), original.faults());

  for (const FileId f : original.files()) {
    EXPECT_EQ(restored.target_of(f), original.target_of(f));
    EXPECT_EQ(restored.version_of(f), original.version_of(f));
    EXPECT_EQ(restored.holders(f), original.holders(f));
    for (const Pid h : original.holders(f)) {
      const auto a = original.node(h).store().info(f);
      const auto b = restored.node(h).store().info(f);
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(a->kind, b->kind);
      EXPECT_EQ(a->version, b->version);
      EXPECT_EQ(a->access_count, b->access_count);
      EXPECT_EQ(a->data, b->data);
    }
  }
  EXPECT_TRUE(restored.verify_integrity().clean());
}

TEST(Snapshot, RestoredSystemKeepsOperating) {
  System original = make_busy_system();
  std::stringstream buffer;
  save_snapshot(original, buffer);
  System restored = load_snapshot(buffer);

  // Same requests route identically in both systems.
  for (const FileId f : original.files()) {
    for (std::uint32_t k = 0; k < 28; ++k) {
      if (!original.is_live(Pid{k})) continue;
      const auto a = original.get(f, Pid{k});
      const auto b = restored.get(f, Pid{k});
      EXPECT_EQ(a.route.path, b.route.path);
      EXPECT_EQ(a.route.served_by, b.route.served_by);
    }
  }
  // And mutations keep working on the restored instance.
  const FileId fresh = restored.insert_key(0xFFFF);
  EXPECT_TRUE(restored.get(fresh, Pid{1}).ok());
  restored.fail(restored.holders(fresh).front());
  restored.join();
}

TEST(Snapshot, EmptySystemRoundTrips) {
  System sys({.m = 4, .b = 0, .seed = 1});
  std::stringstream buffer;
  save_snapshot(sys, buffer);
  const System restored = load_snapshot(buffer);
  EXPECT_EQ(restored.live_count(), 0u);
  EXPECT_TRUE(restored.files().empty());
}

TEST(Snapshot, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "not a snapshot at all";
  EXPECT_THROW(load_snapshot(buffer), std::runtime_error);
}

TEST(Snapshot, RejectsTruncation) {
  System sys = make_busy_system();
  std::stringstream buffer;
  save_snapshot(sys, buffer);
  const std::string whole = buffer.str();
  // Chop at several depths; every prefix must throw, never crash.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{12}, whole.size() / 2,
        whole.size() - 3}) {
    std::stringstream cut(whole.substr(0, keep));
    EXPECT_THROW(load_snapshot(cut), std::runtime_error) << keep;
  }
}

TEST(Snapshot, HugeLengthOnAShortStreamThrowsBeforeAllocating) {
  // One file with one holder: the copy's payload ends the stream, right
  // after its u64 length field. Claim 2^32 - 1 bytes and keep only a few.
  System sys({.m = 4, .b = 0, .seed = 3, .payload_size = 16});
  sys.bootstrap(16);
  (void)sys.insert_key(0x77);
  std::stringstream buffer;
  save_snapshot(sys, buffer);
  std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 24u);
  const std::size_t length_at = bytes.size() - 16 - 8;
  const std::uint64_t claimed = (std::uint64_t{1} << 32) - 1;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[length_at + i] = static_cast<char>((claimed >> (8 * i)) & 0xFFu);
  }
  bytes.resize(length_at + 8 + 4);

  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  std::istringstream in(bytes);
  try {
    (void)load_snapshot(in);
    FAIL() << "a 2^32 - 1 byte claim on a 4-byte tail loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "snapshot truncated");
  }
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);  // KiB
}

TEST(Snapshot, RejectsCorruptConfiguration) {
  System sys({.m = 4, .b = 0, .seed = 1});
  std::stringstream buffer;
  save_snapshot(sys, buffer);
  // Past the widest ID space, and one past the widest the loader builds
  // (accepting it would allocate 2^21 nodes, 218 MB).
  for (const char m : {char{99}, char{kMaxSnapshotWidth + 1}}) {
    std::string bytes = buffer.str();
    bytes[8] = m;  // m field
    std::stringstream corrupt(bytes);
    try {
      (void)load_snapshot(corrupt);
      FAIL() << "m = " << int{m} << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "snapshot: invalid configuration") << int{m};
    }
  }
}

TEST(Snapshot, EveryPrefixAndBitFlipLoadsOrThrows) {
  // m = 5 keeps the loads small: a single-bit flip of the width byte
  // loads at most m = 13; 21 and above are rejected.
  System sys({.m = 5, .b = 1, .seed = 4, .payload_size = 8});
  sys.bootstrap(32);
  for (std::uint64_t k = 0; k < 3; ++k) {
    const FileId f = sys.insert_key(0x6100 + k);
    sys.replicate(f, sys.holders(f).front());
  }
  sys.update(sys.files().front());
  sys.fail(Pid{9});
  std::stringstream buffer;
  save_snapshot(sys, buffer);
  const std::string whole = buffer.str();

  for (std::size_t keep = 0; keep < whole.size(); ++keep) {
    std::istringstream cut(whole.substr(0, keep));
    EXPECT_THROW((void)load_snapshot(cut), std::runtime_error) << keep;
  }
  for (std::size_t i = 0; i < whole.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = whole;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      std::istringstream in(flipped);
      EXPECT_NO_THROW({
        try {
          (void)load_snapshot(in);
        } catch (const std::runtime_error&) {
        }
      }) << "byte " << i << " bit " << bit;
    }
  }
}

class SnapshotFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotFuzz, RandomizedSystemsRoundTrip) {
  util::Rng rng(GetParam());
  System::Config cfg;
  cfg.m = 4 + static_cast<int>(rng.bounded(4));
  cfg.b = static_cast<int>(rng.bounded(3));
  if (cfg.b >= cfg.m) cfg.b = 0;
  cfg.seed = rng();
  cfg.payload_size = rng.bernoulli(0.5) ? 32 : 0;
  System sys(cfg);
  sys.bootstrap(static_cast<std::uint32_t>(
      2 + rng.bounded(util::space_size(cfg.m) - 2)));

  std::vector<FileId> files;
  const std::uint64_t n_files = 1 + rng.bounded(10);
  for (std::uint64_t i = 0; i < n_files; ++i) {
    files.push_back(sys.insert_key(rng()));
  }
  const std::uint64_t ops = rng.bounded(30);
  for (std::uint64_t op = 0; op < ops; ++op) {
    const FileId f = files[rng.bounded(files.size())];
    switch (rng.bounded(4)) {
      case 0:
        if (!sys.holders(f).empty()) sys.replicate(f, sys.holders(f).front());
        break;
      case 1:
        sys.update(f);
        break;
      case 2: {
        const auto live = sys.status().live_pids();
        if (live.size() > 2) sys.leave(Pid{live[rng.bounded(live.size())]});
        break;
      }
      case 3:
        if (sys.live_count() < sys.status().capacity()) sys.join();
        break;
    }
  }

  std::stringstream buffer;
  save_snapshot(sys, buffer);
  System restored = load_snapshot(buffer);
  EXPECT_EQ(restored.status(), sys.status());
  EXPECT_EQ(restored.files(), sys.files());
  for (const FileId f : sys.files()) {
    EXPECT_EQ(restored.holders(f), sys.holders(f));
    EXPECT_EQ(restored.version_of(f), sys.version_of(f));
  }
  EXPECT_TRUE(restored.verify_integrity().clean());
  // And a second save of the restored system is byte-identical.
  std::stringstream again;
  save_snapshot(restored, again);
  // (Holder iteration order lives in unordered containers, so compare via
  // a third load instead of bytes.)
  System thrice = load_snapshot(again);
  EXPECT_EQ(thrice.status(), sys.status());
  for (const FileId f : sys.files()) {
    EXPECT_EQ(thrice.holders(f), sys.holders(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace lesslog::core
