// Replay artifacts: a violating chaos run serialized for exact re-runs.
//
// The artifact is a single JSON document ("lesslog.chaos" version 2)
// carrying the ChaosConfig (which, with its seed, fully determines the
// run), the schedule as it executed, and the violations observed. To
// replay, only the config is needed — replay() re-runs the driver from
// it and must reproduce the same schedule and the same violations
// bit-identically; same_outcome() checks exactly that. The format is
// documented in docs/ROBUSTNESS.md.
#pragma once

#include <string>

#include "lesslog/chaos/driver.hpp"

namespace lesslog::chaos {

/// Serializes a report (doubles at round-trip precision).
[[nodiscard]] std::string artifact_to_json(const Report& report);

/// Writes artifact_to_json() to `path`. Returns false on I/O failure.
bool write_artifact(const std::string& path, const Report& report);

/// Parses the config out of an artifact (the replayable core). Throws
/// std::invalid_argument on malformed input, and on a version-1 artifact
/// of a single-shard oracle run: that run used a driver path that no
/// longer exists, so no replay can reproduce it. Version-1 artifacts of
/// S > 1 or SWIM runs replay as before.
[[nodiscard]] ChaosConfig config_from_artifact(const std::string& json);

/// Re-runs the driver from the artifact's config.
[[nodiscard]] Report replay(const std::string& json);

/// True when two runs executed the same schedule and observed the same
/// violations — the bit-identical-replay acceptance check.
[[nodiscard]] bool same_outcome(const Report& a, const Report& b);

}  // namespace lesslog::chaos
