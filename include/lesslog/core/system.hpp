// LessLogSystem — the top-level public API.
//
// Owns the node set, the liveness status word, and per-file metadata, and
// exposes the paper's protocol suite end to end:
//
//   * insert / get / update / replicate (Sections 2-3),
//   * 2^b-degree fault tolerance (Section 4),
//   * join / leave / fail self-organization (Section 5),
//   * the counter-based cold-replica removal mechanism (Section 6).
//
// Everything is deterministic given the construction seed. The class is a
// single-threaded facade over the pure algorithm functions; benches that
// want raw speed use those functions and the sim layer directly.
//
// Typical use (see examples/quickstart.cpp):
//
//   lesslog::core::System sys({.m = 4, .b = 0});
//   sys.bootstrap(16);
//   const auto f = sys.insert("movies/clip.mpg");
//   auto got = sys.get(f, lesslog::core::Pid{8});
//   sys.replicate(f, got.route.served_by.value());
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/core/node.hpp"
#include "lesslog/core/replication.hpp"
#include "lesslog/core/routing.hpp"
#include "lesslog/util/rng.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::core {

class System {
 public:
  struct Config {
    /// ID-space width: 2^m PID slots. The paper's experiments use m = 10.
    int m = 10;
    /// Fault-tolerance bits: each file is stored at 2^b targets (Section
    /// 4). 0 disables the subtree machinery.
    int b = 0;
    /// Seed for the proportional replication choice and join PID picking.
    std::uint64_t seed = 0x1e55106ULL;
    /// Bytes of synthetic content per file (0 = metadata-only). Content is
    /// the canonical payload of (file, version) — see core/payload.hpp —
    /// so every copy's bytes can be integrity-checked at any time.
    std::size_t payload_size = 0;
  };

  explicit System(Config cfg);

  // ---- Introspection -----------------------------------------------------

  [[nodiscard]] int width() const noexcept { return cfg_.m; }
  [[nodiscard]] int fault_bits() const noexcept { return cfg_.b; }
  [[nodiscard]] const util::StatusWord& status() const noexcept {
    return live_;
  }
  [[nodiscard]] bool is_live(Pid p) const noexcept {
    return live_.is_live(p.value());
  }
  [[nodiscard]] std::uint32_t live_count() const noexcept {
    return live_.live_count();
  }
  [[nodiscard]] const Node& node(Pid p) const {
    return nodes_[p.value()];
  }
  /// The lookup tree a file's requests route through.
  [[nodiscard]] LookupTree tree_of(FileId f) const;
  [[nodiscard]] Pid target_of(FileId f) const;
  /// Every live node currently holding a copy of f (inserted + replicas).
  [[nodiscard]] std::vector<Pid> holders(FileId f) const;
  [[nodiscard]] std::uint64_t version_of(FileId f) const;
  [[nodiscard]] bool file_known(FileId f) const {
    return files_.contains(f);
  }
  /// Files whose every copy has been lost to failures (b = 0 only).
  [[nodiscard]] std::vector<FileId> lost_files() const;
  /// Every file ever inserted (sorted by id).
  [[nodiscard]] std::vector<FileId> files() const;
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // ---- Membership --------------------------------------------------------

  /// Brings PIDs [0, count) live at once without any file motion — the
  /// initial deployment. Must be called before inserting files.
  void bootstrap(std::uint32_t count);

  /// Section 5.1. A node acquires the given PID (or the lowest dead PID)
  /// and joins: registers via broadcast, then reclaims every inserted file
  /// whose authoritative holder it has become. Returns the PID joined.
  Pid join(std::optional<Pid> requested = std::nullopt);

  /// Section 5.2, voluntary departure: replicas are discarded, inserted
  /// files are re-inserted with this node marked dead.
  void leave(Pid p);

  /// Section 5.3, crash: all copies at p vanish. With b > 0 the inserted
  /// files are recovered from sibling subtrees; with b = 0 a file whose
  /// only copy was here becomes lost (requests fault).
  void fail(Pid p);

  // ---- File operations ---------------------------------------------------

  /// INSERTFILE / ADVANCEDINSERTFILE: target r = ψ(name); stores one copy
  /// per subtree (2^b copies; 1 when b = 0).
  FileId insert(std::string_view name);

  /// Insert with a synthetic integer key (ψ over the key bits).
  FileId insert_key(std::uint64_t key);

  /// Insert a file that must land on an explicit target r — used by tests
  /// and by experiments that place the hot file deterministically.
  FileId insert_at(Pid r);

  struct GetOutcome {
    RouteResult route;
    /// True when the request found a copy.
    [[nodiscard]] bool ok() const noexcept {
      return route.served_by.has_value();
    }
  };

  /// GETFILE issued at live node `at`.
  GetOutcome get(FileId f, Pid at);

  struct UpdateOutcome {
    std::uint64_t new_version = 0;
    /// Copies brought to the new version.
    std::int64_t copies_updated = 0;
    /// Broadcast messages spent.
    std::int64_t messages = 0;
  };

  /// UPDATEFILE: bumps the version and propagates top-down through every
  /// subtree's holder chain.
  UpdateOutcome update(FileId f);

  /// REPLICATEFILE on behalf of overloaded node `overloaded`: picks the
  /// placement with bit operations only and stores the replica. Returns
  /// the replica's location, or nullopt when no placement is possible.
  std::optional<Pid> replicate(FileId f, Pid overloaded);

  /// Clears service counters on all nodes (measurement-window boundary).
  void reset_counters();

  // ---- Data integrity ------------------------------------------------------

  struct IntegrityReport {
    /// Copies whose stored bytes do not match the canonical payload of
    /// their *stored* version (bit rot / injected corruption).
    std::vector<std::pair<FileId, Pid>> corrupt;
    /// Copies whose stored version lags the file's current version (a
    /// missed update — must be empty while every copy stays broadcast-
    /// reachable).
    std::vector<std::pair<FileId, Pid>> stale;

    [[nodiscard]] bool clean() const noexcept {
      return corrupt.empty() && stale.empty();
    }
  };

  /// Full sweep over every copy of every file. With payload_size == 0 only
  /// version staleness is checked.
  [[nodiscard]] IntegrityReport verify_integrity() const;

  /// Test fault injection: flips one byte of the copy of f stored at p.
  /// Returns false when no copy (or no payload) is there.
  bool corrupt_copy(FileId f, Pid p);

  // ---- Bookkeeping for experiments ----------------------------------------

  /// Lookup/forward messages spent by all get() calls so far.
  [[nodiscard]] std::int64_t lookup_messages() const noexcept {
    return lookup_messages_;
  }
  /// Messages spent by membership changes (status broadcasts + file moves).
  [[nodiscard]] std::int64_t maintenance_messages() const noexcept {
    return maintenance_messages_;
  }
  /// get() calls that faulted (no copy reachable).
  [[nodiscard]] std::int64_t faults() const noexcept { return faults_; }

 private:
  struct FileMeta {
    Pid target;                        // r = ψ(·)
    std::uint64_t version = 0;
    std::unordered_set<Pid> holders;   // every node with any copy
    bool lost = false;                 // b = 0: original gone, no replicas
  };

  [[nodiscard]] SubtreeView view_of(const LookupTree& tree) const {
    return SubtreeView(tree, cfg_.b);
  }
  [[nodiscard]] FileMeta& meta(FileId f);
  [[nodiscard]] const FileMeta& meta(FileId f) const;
  FileId insert_with_target(FileId f, Pid r);
  void place_inserted(FileId f, FileMeta& fm, Pid at);
  void drop_copy(FileId f, FileMeta& fm, Pid at);
  /// Re-homes every inserted file after the status word changed from
  /// `before` to the current state. `crashed` marks an involuntary
  /// departure (copies at the dead node are already gone and cannot be
  /// pushed; recovery pulls from sibling subtrees instead).
  void rehome_files(const util::StatusWord& before,
                    std::optional<Pid> departed, bool crashed);

  /// Drops replicas that a membership change disconnected from the
  /// top-down update broadcast (e.g. a joining node interposing between a
  /// replica and its previous broadcast parent). Keeps the update-coherence
  /// invariant: every surviving copy receives every update. Part of the
  /// paper's "automatic recovering mechanism to maintain LessLog
  /// integrity"; disconnected replicas simply regrow on the next overload.
  void repair_replica_connectivity();

  friend void save_snapshot(const System& sys, std::ostream& out);
  friend System load_snapshot(std::istream& in);

  Config cfg_;
  util::Rng rng_;
  util::StatusWord live_;
  std::vector<Node> nodes_;
  std::unordered_map<FileId, FileMeta> files_;
  std::uint64_t next_file_key_ = 1;
  std::int64_t lookup_messages_ = 0;
  std::int64_t maintenance_messages_ = 0;
  std::int64_t faults_ = 0;
};

}  // namespace lesslog::core
