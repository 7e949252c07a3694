#include "lesslog/core/system.hpp"

#include <algorithm>
#include <cassert>

#include "lesslog/core/find_live_node.hpp"
#include "lesslog/core/membership.hpp"
#include "lesslog/core/payload.hpp"
#include "lesslog/core/update.hpp"
#include "lesslog/util/hashing.hpp"

namespace lesslog::core {

System::System(Config cfg)
    : cfg_(cfg), rng_(cfg.seed), live_(cfg.m) {
  assert(util::valid_width(cfg_.m));
  assert(cfg_.b >= 0 && cfg_.b < cfg_.m);
  nodes_.reserve(util::space_size(cfg_.m));
  for (std::uint32_t p = 0; p < util::space_size(cfg_.m); ++p) {
    nodes_.emplace_back(Pid{p});
  }
}

LookupTree System::tree_of(FileId f) const {
  return LookupTree(cfg_.m, target_of(f));
}

Pid System::target_of(FileId f) const { return meta(f).target; }

std::vector<Pid> System::holders(FileId f) const {
  const FileMeta& fm = meta(f);
  std::vector<Pid> out(fm.holders.begin(), fm.holders.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t System::version_of(FileId f) const { return meta(f).version; }

std::vector<FileId> System::files() const {
  std::vector<FileId> out;
  out.reserve(files_.size());
  for (const auto& [id, fm] : files_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<FileId> System::lost_files() const {
  std::vector<FileId> out;
  for (const auto& [id, fm] : files_) {
    if (fm.lost) out.push_back(id);
  }
  return out;
}

System::FileMeta& System::meta(FileId f) {
  const auto it = files_.find(f);
  assert(it != files_.end() && "unknown file id");
  return it->second;
}

const System::FileMeta& System::meta(FileId f) const {
  const auto it = files_.find(f);
  assert(it != files_.end() && "unknown file id");
  return it->second;
}

// ---- Membership ------------------------------------------------------------

void System::bootstrap(std::uint32_t count) {
  assert(files_.empty() && "bootstrap must precede file insertion");
  assert(count <= live_.capacity());
  for (std::uint32_t p = 0; p < count; ++p) live_.set_live(p);
}

Pid System::join(std::optional<Pid> requested) {
  Pid p = requested.value_or(Pid{live_.first_dead()});
  assert(p.value() < live_.capacity());
  assert(!live_.is_live(p.value()) && "PID already in use");
  const util::StatusWord before = live_;
  live_.set_live(p.value());
  // "P(k) broadcasts to every live node a message of registering P(k) as a
  // live node" — one message per pre-existing live node.
  maintenance_messages_ += static_cast<std::int64_t>(before.live_count());
  rehome_files(before, std::nullopt, /*crashed=*/false);
  repair_replica_connectivity();
  return p;
}

void System::leave(Pid p) {
  assert(live_.is_live(p.value()));
  const util::StatusWord before = live_;
  live_.set_dead(p.value());
  maintenance_messages_ += broadcast_cost(live_);
  // Replicated files are discarded outright; inserted files are re-homed by
  // rehome_files below (their data is still readable from the departing
  // node while it drains).
  FileStore& store = nodes_[p.value()].store();
  for (FileId f : store.replica_files()) {
    files_.at(f).holders.erase(p);
  }
  const std::vector<FileId> inserted = store.inserted_files();
  rehome_files(before, p, /*crashed=*/false);
  // Anything still on the departing node (its inserted copies were moved by
  // rehome_files, but clear defensively) disappears with it.
  for (FileId f : inserted) {
    if (nodes_[p.value()].store().has(f)) {
      files_.at(f).holders.erase(p);
    }
  }
  store = FileStore{};
  repair_replica_connectivity();
}

void System::fail(Pid p) {
  assert(live_.is_live(p.value()));
  const util::StatusWord before = live_;
  live_.set_dead(p.value());
  // "When P(i) learns the failure of P(k), it first broadcasts to every
  // live node a message of registering P(k) as a dead node."
  maintenance_messages_ += broadcast_cost(live_);
  // A crash loses every copy at p immediately.
  FileStore& store = nodes_[p.value()].store();
  for (FileId f : store.inserted_files()) files_.at(f).holders.erase(p);
  for (FileId f : store.replica_files()) files_.at(f).holders.erase(p);
  store = FileStore{};
  rehome_files(before, p, /*crashed=*/true);
  repair_replica_connectivity();
}

void System::rehome_files(const util::StatusWord& before,
                          std::optional<Pid> departed, bool crashed) {
  for (auto& [f, fm] : files_) {
    if (fm.lost) continue;
    const LookupTree tree(cfg_.m, fm.target);
    const SubtreeView view = view_of(tree);
    for (const HolderChange& change : diff_holders(view, before, live_)) {
      if (!change.to.has_value()) continue;  // subtree emptied; nothing to do
      const Pid dest = *change.to;
      const auto dest_info = nodes_[dest.value()].store().info(f);
      if (dest_info.has_value() && dest_info->kind == CopyKind::kInserted) {
        continue;  // already authoritative here
      }
      // Locate a data source. After a graceful leave the departing node can
      // still push its copy; after a crash the data must be pulled from any
      // surviving holder (typically the sibling subtree's target, Section
      // 5.3). With b = 0 and no replicas, the file is lost.
      bool have_source = false;
      if (!crashed && change.from.has_value()) {
        have_source = true;  // previous holder still has the bits
      } else if (!fm.holders.empty()) {
        have_source = true;  // pull from a surviving copy
      }
      if (!have_source) {
        fm.lost = true;
        break;
      }
      place_inserted(f, fm, dest);
      maintenance_messages_ += 1;  // the file-transfer message
      // Remove the stale authoritative copy from the previous holder (the
      // departing node is cleared wholesale by leave()/fail()).
      if (change.from.has_value() && *change.from != dest &&
          (!departed.has_value() || *change.from != *departed)) {
        drop_copy(f, fm, *change.from);
      }
    }
  }
}

void System::repair_replica_connectivity() {
  for (auto& [f, fm] : files_) {
    if (fm.holders.empty()) continue;
    const LookupTree tree(cfg_.m, fm.target);
    const auto holds = [&fm](Pid p) { return fm.holders.contains(p); };

    std::unordered_set<Pid> reachable;
    if (cfg_.b == 0) {
      for (const Pid p : propagate_update(tree, live_, holds).updated) {
        reachable.insert(p);
      }
    } else {
      const SubtreeView view = view_of(tree);
      for (std::uint32_t t = 0; t < view.subtree_count(); ++t) {
        for (const Pid p : view.propagate_update(t, live_, holds).updated) {
          reachable.insert(p);
        }
      }
    }
    std::vector<Pid> to_drop;
    for (const Pid h : fm.holders) {
      if (reachable.contains(h)) continue;
      const auto info = nodes_[h.value()].store().info(f);
      if (info.has_value() && info->kind == CopyKind::kReplica) {
        to_drop.push_back(h);
      }
    }
    for (const Pid h : to_drop) {
      drop_copy(f, fm, h);
      maintenance_messages_ += 1;  // the discard notification
    }
  }
}

// ---- File operations --------------------------------------------------------

FileId System::insert(std::string_view name) {
  const FileId f{util::fnv1a64(name)};
  return insert_with_target(f, Pid{util::psi(name, cfg_.m)});
}

FileId System::insert_key(std::uint64_t key) {
  // The naming rule the whole stack shares: the FileId *is* the key and
  // the target is ψ(key). The proto layer re-derives targets from file
  // ids alone (Peer::target_of), so the two must stay in lockstep.
  const FileId f{key};
  return insert_with_target(f, Pid{util::psi_u64(key, cfg_.m)});
}

FileId System::insert_at(Pid r) {
  assert(r.value() < live_.capacity());
  // Synthetic ids live in a reserved stripe so they cannot collide with
  // hash-derived ids in practice (the top byte is forced).
  const FileId f{(std::uint64_t{0xF1} << 56) | next_file_key_++};
  return insert_with_target(f, r);
}

FileId System::insert_with_target(FileId f, Pid r) {
  assert(!files_.contains(f) && "duplicate insert");
  FileMeta fm{.target = r, .version = 0, .holders = {}, .lost = false};
  const LookupTree tree(cfg_.m, r);
  const SubtreeView view = view_of(tree);
  for (Pid holder : view.insertion_targets(live_)) {
    auto [it, inserted] = files_.try_emplace(f, fm);
    place_inserted(f, it->second, holder);
    maintenance_messages_ += 1;  // the forwarded insert request
  }
  if (!files_.contains(f)) {
    // No live node anywhere: record the file as lost on arrival.
    fm.lost = true;
    files_.emplace(f, std::move(fm));
  }
  return f;
}

void System::place_inserted(FileId f, FileMeta& fm, Pid at) {
  nodes_[at.value()].store().put_inserted(
      f, fm.version,
      cfg_.payload_size > 0 ? make_payload(f, fm.version, cfg_.payload_size)
                            : Payload{});
  fm.holders.insert(at);
}

void System::drop_copy(FileId f, FileMeta& fm, Pid at) {
  nodes_[at.value()].store().erase(f);
  fm.holders.erase(at);
}

System::GetOutcome System::get(FileId f, Pid at) {
  assert(live_.is_live(at.value()) && "requests originate at live nodes");
  FileMeta& fm = meta(f);
  const LookupTree tree(cfg_.m, fm.target);
  const HasCopyFn has_copy = [&fm](Pid p) { return fm.holders.contains(p); };

  RouteResult route;
  if (cfg_.b == 0) {
    route = route_get(tree, at, live_, has_copy);
  } else {
    route = view_of(tree).route_get(at, live_, has_copy);
  }
  lookup_messages_ += route.hops();
  for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
    nodes_[route.path[i].value()].count_forwarded();
  }
  if (route.served_by.has_value()) {
    Node& server = nodes_[route.served_by->value()];
    server.count_served();
    server.store().record_access(f);
  } else {
    ++faults_;
  }
  return GetOutcome{route};
}

System::UpdateOutcome System::update(FileId f) {
  FileMeta& fm = meta(f);
  UpdateOutcome out;
  out.new_version = ++fm.version;
  const LookupTree tree(cfg_.m, fm.target);
  const auto holds = [&fm](Pid p) { return fm.holders.contains(p); };

  const auto apply_all = [&](const std::vector<Pid>& updated) {
    for (Pid p : updated) {
      nodes_[p.value()].store().apply_update(
          f, fm.version,
          cfg_.payload_size > 0
              ? make_payload(f, fm.version, cfg_.payload_size)
              : Payload{});
      ++out.copies_updated;
    }
  };
  if (cfg_.b == 0) {
    const UpdateResult res = propagate_update(tree, live_, holds);
    apply_all(res.updated);
    out.messages = res.messages;
  } else {
    const SubtreeView view = view_of(tree);
    for (std::uint32_t t = 0; t < view.subtree_count(); ++t) {
      const SubtreeView::SubtreeUpdate res =
          view.propagate_update(t, live_, holds);
      apply_all(res.updated);
      out.messages += res.messages;
    }
  }
  return out;
}

std::optional<Pid> System::replicate(FileId f, Pid overloaded) {
  FileMeta& fm = meta(f);
  const LookupTree tree(cfg_.m, fm.target);
  const auto holds = [&fm](Pid p) { return fm.holders.contains(p); };

  std::optional<Pid> target;
  if (cfg_.b == 0) {
    const std::optional<Placement> placement =
        replicate_target(tree, overloaded, live_, holds, rng_);
    if (placement.has_value()) target = placement->target;
  } else {
    target = view_of(tree).replicate_target(overloaded, live_, holds, rng_);
  }
  if (!target.has_value()) return std::nullopt;
  // The replica receives the overloaded holder's current bytes; with
  // deterministic content that is the canonical payload of the version.
  nodes_[target->value()].store().put_replica(
      f, fm.version,
      cfg_.payload_size > 0 ? make_payload(f, fm.version, cfg_.payload_size)
                            : Payload{});
  fm.holders.insert(*target);
  maintenance_messages_ += 1;  // the CREATEFILE message
  return target;
}

void System::reset_counters() {
  for (Node& n : nodes_) n.reset_counters();
}

System::IntegrityReport System::verify_integrity() const {
  IntegrityReport report;
  for (const auto& [f, fm] : files_) {
    for (const Pid p : fm.holders) {
      const FileStore& store = nodes_[p.value()].store();
      const auto info = store.info(f);
      if (!info.has_value()) continue;  // holder bookkeeping tested elsewhere
      if (info->version != fm.version) report.stale.emplace_back(f, p);
      if (cfg_.payload_size > 0 &&
          !verify_payload(f, info->version, info->data)) {
        report.corrupt.emplace_back(f, p);
      }
    }
  }
  return report;
}

bool System::corrupt_copy(FileId f, Pid p) {
  FileStore& store = nodes_[p.value()].store();
  const auto* data = store.payload(f);
  if (data == nullptr || data->empty()) return false;
  Payload flipped = *data;
  flipped[flipped.size() / 2] ^= 0x40u;
  return store.set_payload(f, std::move(flipped));
}

}  // namespace lesslog::core
