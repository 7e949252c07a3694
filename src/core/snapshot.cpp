#include "lesslog/core/snapshot.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace lesslog::core {

namespace {

constexpr std::uint32_t kMagic = 0x4C4C4F47u;  // "LLOG"

void put_u32(std::ostream& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.put(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::ostream& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.put(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t get_u32(std::istream& in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) {
      throw std::runtime_error("snapshot truncated");
    }
    v |= static_cast<std::uint32_t>(c & 0xFF) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(std::istream& in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) {
      throw std::runtime_error("snapshot truncated");
    }
    v |= static_cast<std::uint64_t>(c & 0xFF) << (8 * i);
  }
  return v;
}

void put_bytes(std::ostream& out, const std::vector<std::uint8_t>& bytes) {
  put_u64(out, bytes.size());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> get_bytes(std::istream& in) {
  const std::uint64_t size = get_u64(in);
  if (size > (std::uint64_t{1} << 32)) {
    throw std::runtime_error("snapshot payload size implausible");
  }
  // Read in bounded chunks, so that the buffer grows only as bytes really
  // arrive: a corrupt length field on a short stream throws "snapshot
  // truncated" after one chunk instead of first allocating (and zeroing)
  // up to 4 GiB.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  std::vector<std::uint8_t> bytes;
  while (bytes.size() < size) {
    const std::size_t have = bytes.size();
    const auto n = static_cast<std::size_t>(std::min(kChunk, size - have));
    bytes.resize(have + n);
    in.read(reinterpret_cast<char*>(bytes.data() + have),
            static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n) {
      throw std::runtime_error("snapshot truncated");
    }
  }
  return bytes;
}

}  // namespace

void save_snapshot(const System& sys, std::ostream& out) {
  put_u32(out, kMagic);
  put_u32(out, kSnapshotVersion);
  put_u32(out, static_cast<std::uint32_t>(sys.cfg_.m));
  put_u32(out, static_cast<std::uint32_t>(sys.cfg_.b));
  put_u64(out, sys.cfg_.seed);
  put_u64(out, sys.cfg_.payload_size);

  // Liveness bitmap as an explicit PID list.
  const std::vector<std::uint32_t> live = sys.live_.live_pids();
  put_u32(out, static_cast<std::uint32_t>(live.size()));
  for (const std::uint32_t p : live) put_u32(out, p);

  put_u64(out, sys.next_file_key_);
  put_u64(out, static_cast<std::uint64_t>(sys.lookup_messages_));
  put_u64(out, static_cast<std::uint64_t>(sys.maintenance_messages_));
  put_u64(out, static_cast<std::uint64_t>(sys.faults_));

  put_u64(out, sys.files_.size());
  for (const auto& [f, fm] : sys.files_) {
    put_u64(out, f.key());
    put_u32(out, fm.target.value());
    put_u64(out, fm.version);
    put_u32(out, fm.lost ? 1u : 0u);
    put_u32(out, static_cast<std::uint32_t>(fm.holders.size()));
    for (const Pid holder : fm.holders) {
      const auto info = sys.nodes_[holder.value()].store().info(f);
      if (!info.has_value()) {
        throw std::runtime_error("snapshot: holder without a copy");
      }
      put_u32(out, holder.value());
      put_u32(out, info->kind == CopyKind::kInserted ? 1u : 0u);
      put_u64(out, info->version);
      put_u64(out, info->access_count);
      put_bytes(out, info->data);
    }
  }
  if (!out) throw std::runtime_error("snapshot: stream write failure");
}

System load_snapshot(std::istream& in) {
  if (get_u32(in) != kMagic) {
    throw std::runtime_error("snapshot: bad magic");
  }
  if (get_u32(in) != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported version");
  }
  System::Config cfg;
  cfg.m = static_cast<int>(get_u32(in));
  cfg.b = static_cast<int>(get_u32(in));
  cfg.seed = get_u64(in);
  cfg.payload_size = static_cast<std::size_t>(get_u64(in));
  if (!util::valid_width(cfg.m) || cfg.m > kMaxSnapshotWidth || cfg.b < 0 ||
      cfg.b >= cfg.m) {
    throw std::runtime_error("snapshot: invalid configuration");
  }
  System sys(cfg);

  const std::uint32_t live_count = get_u32(in);
  if (live_count > util::space_size(cfg.m)) {
    throw std::runtime_error("snapshot: live count out of range");
  }
  for (std::uint32_t i = 0; i < live_count; ++i) {
    const std::uint32_t p = get_u32(in);
    if (!util::fits(p, cfg.m)) {
      throw std::runtime_error("snapshot: PID out of range");
    }
    sys.live_.set_live(p);
  }

  sys.next_file_key_ = get_u64(in);
  sys.lookup_messages_ = static_cast<std::int64_t>(get_u64(in));
  sys.maintenance_messages_ = static_cast<std::int64_t>(get_u64(in));
  sys.faults_ = static_cast<std::int64_t>(get_u64(in));

  const std::uint64_t file_count = get_u64(in);
  for (std::uint64_t i = 0; i < file_count; ++i) {
    const FileId f{get_u64(in)};
    System::FileMeta fm;
    const std::uint32_t target = get_u32(in);
    if (!util::fits(target, cfg.m)) {
      throw std::runtime_error("snapshot: target out of range");
    }
    fm.target = Pid{target};
    fm.version = get_u64(in);
    fm.lost = get_u32(in) != 0;
    const std::uint32_t holder_count = get_u32(in);
    for (std::uint32_t h = 0; h < holder_count; ++h) {
      const std::uint32_t pid = get_u32(in);
      if (!util::fits(pid, cfg.m)) {
        throw std::runtime_error("snapshot: holder out of range");
      }
      const bool inserted = get_u32(in) != 0;
      const std::uint64_t version = get_u64(in);
      const std::uint64_t access = get_u64(in);
      std::vector<std::uint8_t> data = get_bytes(in);
      FileStore& store = sys.nodes_[pid].store();
      if (inserted) {
        store.put_inserted(f, version, std::move(data));
      } else {
        store.put_replica(f, version, std::move(data));
      }
      store.set_access_count(f, access);
      fm.holders.insert(Pid{pid});
    }
    sys.files_.emplace(f, std::move(fm));
  }
  return sys;
}

}  // namespace lesslog::core
