// Binary snapshots of a whole System: configuration, liveness, every
// file's metadata, and every node's store including payload bytes.
//
// Lets long experiments checkpoint/restore and lets tooling inspect a
// system state offline. The format is little-endian, versioned, and
// self-describing enough to fail loudly (std::runtime_error) on
// truncation, magic mismatch, or unknown versions.
#pragma once

#include <iosfwd>

#include "lesslog/core/system.hpp"

namespace lesslog::core {

/// Current snapshot format version.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Widest ID space load_snapshot accepts: the widest any workload here
/// runs. The loader builds all 2^m nodes before it reads the rest, so a
/// corrupt header must not ask for more.
inline constexpr int kMaxSnapshotWidth = 20;

/// Writes the complete state of `sys` to `out`. Throws std::runtime_error
/// on stream failure.
void save_snapshot(const System& sys, std::ostream& out);

/// Reconstructs a System from a snapshot produced by save_snapshot.
/// Throws std::runtime_error on malformed input.
[[nodiscard]] System load_snapshot(std::istream& in);

}  // namespace lesslog::core
