#include "lesslog/proto/sharded_swarm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "lesslog/core/replication.hpp"
#include "lesslog/util/huge_pages.hpp"

namespace lesslog::proto {

namespace {

/// Occupancy-grid resolution for the pairwise distance floors. Coarser
/// cells only loosen the bound (still conservative); 32 x 32 keeps the
/// worst-case cell-pair scan trivial while resolving blobs a few
/// percent of the unit square wide.
constexpr int kGrid = 32;

/// Conservative lower bound on the distance between any point of cell a
/// and any point of cell b: shrink the axis gaps by one full cell (the
/// points may sit anywhere inside), so touching or adjacent cells bound
/// to zero.
double cell_pair_floor(int ax, int ay, int bx, int by) {
  const double dx =
      static_cast<double>(std::max(0, std::abs(ax - bx) - 1)) / kGrid;
  const double dy =
      static_cast<double>(std::max(0, std::abs(ay - by) - 1)) / kGrid;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

ShardedSwarm::Plan ShardedSwarm::make_plan(const Config& cfg) {
  const std::uint32_t space = util::space_size(cfg.m);
  if (cfg.shards == 0 || cfg.shards > space) {
    throw std::invalid_argument("ShardedSwarm: shards must be in [1, 2^m]");
  }
  Plan plan;
  plan.map = ShardMap(cfg.shard_map, cfg.m, cfg.shards);
  plan.geo = cfg.geo;
  if (plan.geo.has_value() && plan.geo->slots == 0) {
    plan.geo->slots = space;
  }
  const std::size_t n = cfg.shards;
  const double base = cfg.net.base_latency;
  plan.pair.assign(n * n, base);
  if (n > 1 && plan.geo.has_value() && plan.geo->latency_per_unit > 0.0) {
    // Distance floor between shard regions, over a coarse occupancy
    // grid. Every slot counts (not just the initially-live ones): any
    // PID can join later and send, so the bound must cover the whole
    // partition.
    assert(plan.geo->slots >= space &&
           "geography must cover the whole ID space");
    const auto coords = make_coordinates(*plan.geo);
    std::vector<std::vector<std::uint16_t>> cells(n);
    {
      std::vector<std::vector<bool>> occupied(
          n, std::vector<bool>(kGrid * kGrid, false));
      for (std::uint32_t p = 0; p < space; ++p) {
        const auto [x, y] = coords[p];
        const int cx = std::clamp(static_cast<int>(x * kGrid), 0, kGrid - 1);
        const int cy = std::clamp(static_cast<int>(y * kGrid), 0, kGrid - 1);
        occupied[plan.map.shard_of(core::Pid{p})]
                [static_cast<std::size_t>(cy * kGrid + cx)] = true;
      }
      for (std::size_t s = 0; s < n; ++s) {
        for (std::uint32_t c = 0; c < kGrid * kGrid; ++c) {
          if (occupied[s][c]) {
            cells[s].push_back(static_cast<std::uint16_t>(c));
          }
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        double dist = std::numeric_limits<double>::infinity();
        for (const std::uint16_t a : cells[i]) {
          const int ax = a % kGrid;
          const int ay = a / kGrid;
          for (const std::uint16_t b : cells[j]) {
            dist = std::min(
                dist, cell_pair_floor(ax, ay, b % kGrid, b / kGrid));
          }
          if (dist == 0.0) break;  // can't get lower; skip the rest
        }
        const double bound = base + plan.geo->latency_per_unit * dist;
        plan.pair[i * n + j] = bound;
        plan.pair[j * n + i] = bound;
      }
    }
  }
  plan.floor = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) plan.floor = std::min(plan.floor, plan.pair[i * n + j]);
    }
  }
  if (n == 1) plan.floor = base;
  if (n > 1 && !(plan.floor > 0.0)) {
    throw std::invalid_argument(
        "ShardedSwarm: shards > 1 requires a strictly positive pairwise "
        "cross-shard latency floor (the adaptive lookahead): set "
        "base_latency > 0, or give the shards geographically disjoint "
        "regions (clustered geography under the range map); with this "
        "configuration some shard pair's latency lower bound is zero, so "
        "no conservative parallel window exists");
  }
  return plan;
}

ShardedSwarm::ShardedSwarm(Config cfg)
    : ShardedSwarm(cfg, make_plan(cfg)) {}

ShardedSwarm::ShardedSwarm(Config cfg, Plan plan)
    : cfg_(cfg),
      status_(util::StatusWord(cfg.m)),
      engines_(cfg.shards, cfg.seed,
               cfg.shards > 1 ? plan.floor : cfg.net.base_latency),
      router_(plan.map) {
  assert(cfg_.nodes <= util::space_size(cfg_.m));
  if (cfg_.shards > 1) {
    engines_.set_pair_lookahead(plan.pair);
  }
  shards_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    const ShardMap& map = plan.map;
    shards_.push_back(std::make_unique<Shard>(
        engines_.shard(s), cfg_.net,
        Network::PidSlice{map.first_pid(s), map.pid_stride(),
                          map.pid_count(s)}));
    shards_[s]->network.set_metrics(&shards_[s]->metrics);
    if (plan.geo.has_value()) {
      shards_[s]->network.enable_geography(*plan.geo);
    }
  }
  if (cfg_.shards > 1) {
    // Cross-shard interception: the sender's shard ran the full latency
    // and fault pipeline already; only the arrival crosses over.
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      shards_[s]->network.set_forward(
          [this, s](core::Pid to, double at, const WireBuffer& wire) {
            const std::size_t dest = router_.shard_of(to);
            if (dest == s) return false;
            router_.post(s, dest, at, wire);
            return true;
          });
    }
    engines_.set_drain([this](std::size_t s) {
      router_.drain_into(s, shards_[s]->network);
    });
  }
  for (std::uint32_t p = 0; p < cfg_.nodes; ++p) {
    status_.mutate().set_live(p);  // sole owner here: never clones
  }
  auto_replicas_by_shard_.assign(cfg_.shards, 0);
  auto_removals_by_shard_.assign(cfg_.shards, 0);
  // The Peer and Client constructors validate their configs; a pool task
  // must not throw, so a bad config is rejected here, before any record
  // exists.
  cfg_.peer.validate();
  cfg_.client.validate();
  const std::uint32_t space = util::space_size(cfg_.m);
  const std::size_t bytes = std::size_t{space} * sizeof(Record);
  records_ = std::unique_ptr<Record[], RecordsDelete>(
      static_cast<Record*>(util::allocate_huge(bytes)), RecordsDelete{bytes});
  made_.assign(space, false);
  // One shared copy-on-write snapshot per shard for the whole
  // construction batch: at m=16 this replaces 2^16 distinct 8 KiB status
  // words (512 MiB) with one word per shard that its peers alias until
  // their views diverge. Per shard, not swarm-wide: the copy-on-write
  // check (use_count) does not order one worker's in-place write after
  // another worker's last read, so two shards' peers must never share a
  // word. Each shard builds its own PIDs, in ascending order; made_ is
  // filled after the join, since under the subtree map neighbouring bits
  // belong to different shards.
  engines_.for_each_shard([this](std::size_t s) {
    const util::CowStatus shard_view(status_.read());
    for (std::uint32_t p = 0; p < cfg_.nodes; ++p) {
      if (router_.shard_of(core::Pid{p}) == s) {
        make_peer(core::Pid{p}, shard_view.snapshot());
      }
    }
  });
  for (std::uint32_t p = 0; p < cfg_.nodes; ++p) made_[p] = true;
}

ShardedSwarm::~ShardedSwarm() {
  const std::uint32_t space = util::space_size(cfg_.m);
  for (std::uint32_t p = 0; p < space; ++p) {
    if (made_[p]) client(core::Pid{p}).~Client();
  }
  for (std::uint32_t p = 0; p < space; ++p) {
    if (made_[p]) peer(core::Pid{p}).~Peer();
  }
}

void ShardedSwarm::RecordsDelete::operator()(
    Record* records) const noexcept {
  util::deallocate_huge(records, bytes);
}

void ShardedSwarm::make_peer(core::Pid p, util::CowStatus view) {
  Shard& sh = home(p);
  Record& record = records_[p.value()];
  Peer* peer_ptr = ::new (static_cast<void*>(record.peer))
      Peer(p, cfg_.b, std::move(view), sh.network, cfg_.peer);
  peer_ptr->set_metrics(&sh.metrics);
  peer_ptr->attach();
  Client* client_ptr = ::new (static_cast<void*>(record.client))
      Client(*peer_ptr, sh.network, cfg_.client);
  client_ptr->set_metrics(&sh.metrics);
}

std::int64_t ShardedSwarm::settle() { return engines_.run_all_windows(); }

std::int64_t ShardedSwarm::run_until(double t) {
  return engines_.run_until_windows(t);
}

void ShardedSwarm::insert(core::FileId file, core::Pid r,
                          core::Pid issuer) {
  Peer& from = peer(issuer);
  const core::LookupTree tree(cfg_.m, r);
  const core::SubtreeView view(tree, cfg_.b);
  for (const core::Pid holder : view.insertion_targets(from.status())) {
    client(issuer).insert(file, r, holder, nullptr);
  }
}

core::FileId ShardedSwarm::insert_named(std::uint64_t key,
                                        core::Pid issuer) {
  const core::FileId file{key};
  insert(file, peer(issuer).target_of(file), issuer);
  return file;
}

void ShardedSwarm::get(core::FileId file, core::Pid r, core::Pid at,
                       Client::GetCallback done) {
  client(at).get(file, r, std::move(done));
}

void ShardedSwarm::update(core::FileId file, core::Pid r,
                          std::uint64_t version, core::Pid issuer) {
  Peer& from = peer(issuer);
  const core::LookupTree tree(cfg_.m, r);
  const core::SubtreeView view(tree, cfg_.b);
  for (std::uint32_t t = 0; t < view.subtree_count(); ++t) {
    const std::optional<core::Pid> origin =
        view.insertion_target(t, from.status());
    if (!origin.has_value()) continue;
    Message push;
    push.type = MsgType::kUpdatePush;
    push.from = issuer;
    push.to = *origin;
    push.requester = issuer;
    push.subject = r;
    push.file = file;
    push.version = version;
    home(issuer).network.send(push);
  }
}

std::optional<core::Pid> ShardedSwarm::replicate(
    core::FileId file, core::Pid r, core::Pid overloaded,
    const core::HoldsCopyFn& holds) {
  // The holder's shard supplies both the randomness and the wire.
  Peer& at = peer(overloaded);
  const core::LookupTree tree(cfg_.m, r);
  util::Rng& rng = engines_.shard(shard_of(overloaded)).rng();
  std::optional<core::Pid> target;
  if (cfg_.b == 0) {
    const std::optional<core::Placement> placement =
        core::replicate_target(tree, overloaded, at.status(), holds, rng);
    if (placement.has_value()) target = placement->target;
  } else {
    const core::SubtreeView view(tree, cfg_.b);
    target = view.replicate_target(overloaded, at.status(), holds, rng);
  }
  if (!target.has_value()) return std::nullopt;
  Message create;
  create.type = MsgType::kCreateReplica;
  create.from = overloaded;
  create.to = *target;
  create.requester = overloaded;
  create.subject = r;
  create.file = file;
  const auto info = at.store().info(file);
  create.version = info.has_value() ? info->version : 0;
  home(overloaded).network.send(create);
  return target;
}

core::Pid ShardedSwarm::join(std::optional<core::Pid> requested) {
  const core::Pid p =
      requested.value_or(core::Pid{status_.read().first_dead()});
  assert(!status_.read().is_live(p.value()));
  status_.mutate().set_live(p.value());
  // The joiner obtains a fresh status word from a neighbor (modelled as
  // an O(1) snapshot of the swarm's ground truth) and announces itself to
  // everyone. Peer and Client objects are reused across rejoin cycles:
  // engine timers capture raw pointers to them, so they must live as long
  // as the swarm.
  if (made_[p.value()]) {
    peer(p).rejoin(status_.snapshot());
  } else {
    make_peer(p, status_.snapshot());
    made_[p.value()] = true;
  }
  Shard& sh = home(p);
  sh.network.notify_peer_event(engines_.shard(shard_of(p)).now(), p,
                               /*live=*/true);
  broadcast_status(p, /*live=*/true);
  // Section 5.1: sweep the swarm for ψ-named files this node is now the
  // authoritative holder of; current holders push them back.
  for (std::uint32_t q = 0; q < util::space_size(cfg_.m); ++q) {
    if (q == p.value() || !status_.read().is_live(q)) continue;
    Message reclaim;
    reclaim.type = MsgType::kReclaim;
    reclaim.from = p;
    reclaim.to = core::Pid{q};
    reclaim.requester = p;
    reclaim.subject = p;
    sh.network.send(reclaim);
  }
  return p;
}

void ShardedSwarm::depart(core::Pid p) {
  assert(status_.read().is_live(p.value()));
  // Graceful: push inserted files to their next holders first (5.2)...
  peer(p).graceful_leave();
  // ...then register the departure and go dark.
  broadcast_status(p, /*live=*/false);
  status_.mutate().set_dead(p.value());
  peer(p).detach();
  home(p).network.notify_peer_event(engines_.shard(shard_of(p)).now(), p,
                                    /*live=*/false);
}

void ShardedSwarm::crash(core::Pid p) {
  assert(status_.read().is_live(p.value()));
  // The store is lost instantly; the failure is then detected and
  // announced, which triggers sibling-subtree recovery at the survivors.
  peer(p).detach();
  status_.mutate().set_dead(p.value());
  broadcast_status(p, /*live=*/false);
  home(p).network.notify_peer_event(engines_.shard(shard_of(p)).now(), p,
                                    /*live=*/false);
}

void ShardedSwarm::restart(core::Pid p) {
  assert(!status_.read().is_live(p.value()));
  join(p);
}

void ShardedSwarm::reannounce() {
  for (std::uint32_t p = 0; p < util::space_size(cfg_.m); ++p) {
    // Only PIDs that ever existed matter; a slot that never had a peer
    // was never announced live to anyone.
    if (!made_[p]) continue;
    broadcast_status(core::Pid{p}, status_.read().is_live(p));
  }
}

void ShardedSwarm::crash_unannounced(core::Pid p) {
  assert(status_.read().is_live(p.value()));
  peer(p).detach();
  status_.mutate().set_dead(p.value());
  home(p).network.notify_peer_event(engines_.shard(shard_of(p)).now(), p,
                                    /*live=*/false);
  // No broadcast_status: in SWIM mode the failure detector discovers the
  // silence, gossips the suspicion, and the eventual confirm triggers the
  // survivors' Section 5.3 recovery through Peer::learn_dead.
}

void ShardedSwarm::crash_silent(core::Pid p) {
  // Same mechanics as crash_unannounced, but nothing will ever close the
  // loop: survivors never learn of the failure, sibling-subtree recovery
  // never runs, and reannounce() deliberately repairs only liveness
  // views, not lost data — the resulting replica loss is exactly what
  // chaos::Audit must flag.
  crash_unannounced(p);
}

void ShardedSwarm::broadcast_status(core::Pid about, bool live) {
  // Announcements originate at `about`, so they ride its shard's network
  // (and draw jitter from that shard's RNG stream).
  Network& net = home(about).network;
  for (std::uint32_t q = 0; q < util::space_size(cfg_.m); ++q) {
    if (q == about.value() || !status_.read().is_live(q)) continue;
    Message announce;
    announce.type = MsgType::kStatusAnnounce;
    announce.from = about;
    announce.to = core::Pid{q};
    announce.subject = about;
    announce.ok = live;
    net.send(announce);
  }
}

void ShardedSwarm::enable_auto_replication(double capacity, double window,
                                           double stop_at,
                                           double removal_threshold) {
  assert(capacity > 0.0 && window > 0.0 && removal_threshold >= 0.0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    engines_.shard(s).after(
        window, [this, s, capacity, window, stop_at, removal_threshold] {
          auto_replication_tick(s, capacity, window, stop_at,
                                removal_threshold);
        });
  }
}

void ShardedSwarm::auto_replication_tick(std::size_t s, double capacity,
                                         double window, double stop_at,
                                         double removal_threshold) {
  // One shard's slice of the controller tick: runs on shard s's engine
  // and touches only shard-local peers (their counters, stores,
  // networks) plus the read-only ground-truth status word — so S ticks
  // can run concurrently inside a window without a race.
  const auto budget = static_cast<std::int64_t>(capacity * window);
  const auto cold =
      static_cast<std::uint64_t>(removal_threshold * window);
  for (std::uint32_t p = 0; p < util::space_size(cfg_.m); ++p) {
    if (router_.shard_of(core::Pid{p}) != s) continue;
    if (!status_.read().is_live(p) || !made_[p]) continue;
    Peer& peer_ref = peer(core::Pid{p});
    if (peer_ref.served() > budget) {
      if (peer_ref.shed_hottest().has_value()) {
        ++auto_replicas_by_shard_[s];
      }
    } else if (cold > 0) {
      // Counter-based removal (Section 6): cold replicas are dropped
      // locally; the paper's "simple counter-based mechanism". Only
      // replicas go — inserted copies are authoritative.
      auto_removals_by_shard_[s] += static_cast<std::int64_t>(
          peer_ref.store().prune_cold_replicas(cold).size());
    }
    peer_ref.reset_window();
  }
  if (engines_.shard(s).now() + window <= stop_at) {
    engines_.shard(s).after(
        window, [this, s, capacity, window, stop_at, removal_threshold] {
          auto_replication_tick(s, capacity, window, stop_at,
                                removal_threshold);
        });
  }
}

std::int64_t ShardedSwarm::auto_replicas() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t v : auto_replicas_by_shard_) total += v;
  return total;
}

std::int64_t ShardedSwarm::auto_removals() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t v : auto_removals_by_shard_) total += v;
  return total;
}

void ShardedSwarm::enable_metrics_sampling(double interval,
                                           double stop_at) {
  assert(samplers_.empty() && "sampling already enabled");
  samplers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    samplers_.push_back(std::make_unique<obs::Sampler>(
        engines_.shard(s), shards_[s]->registry, interval, stop_at,
        [this, s] {
          // Shard-local gauge refresh (runs on shard s's worker):
          // queue_depth is this shard's queue; live_peers comes from the
          // read-only ground truth and is set by shard 0 alone (merged
          // gauges sum); max_served is this shard's hottest peer.
          Shard& sh = *shards_[s];
          sh.metrics.queue_depth->set(
              static_cast<double>(engines_.shard(s).queue().size()));
          if (s == 0) {
            sh.metrics.live_peers->set(
                static_cast<double>(status_.read().live_count()));
          }
          std::int64_t hottest = 0;
          for (std::uint32_t p = 0; p < util::space_size(cfg_.m); ++p) {
            if (router_.shard_of(core::Pid{p}) != s) continue;
            if (status_.read().is_live(p) && made_[p]) {
              hottest = std::max(hottest, peer(core::Pid{p}).served());
            }
          }
          sh.metrics.max_served->set(static_cast<double>(hottest));
        }));
    samplers_.back()->start();
  }
}

const obs::TimeSeries& ShardedSwarm::metrics_series() {
  merged_series_.samples.clear();
  if (samplers_.empty()) return merged_series_;
  const std::size_t count = samplers_[0]->series().size();
  merged_series_.samples.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    // Sample k of shard 0 (keeps its capture time) absorbs sample k of
    // every other shard — all samplers tick at the same simulated
    // times, so index k is one swarm-wide instant.
    obs::Snapshot merged = samplers_[0]->series().samples[k];
    for (std::size_t s = 1; s < samplers_.size(); ++s) {
      assert(samplers_[s]->series().size() == count);
      merged.merge_from(samplers_[s]->series().samples[k]);
    }
    merged_series_.samples.push_back(std::move(merged));
  }
  return merged_series_;
}

std::int64_t ShardedSwarm::total_faults() const {
  std::int64_t total = 0;
  for (std::uint32_t p = 0; p < made_.size(); ++p) {
    if (made_[p]) total += client(p).faults();
  }
  return total;
}

std::vector<double> ShardedSwarm::all_latencies() const {
  std::vector<double> out;
  for (std::uint32_t p = 0; p < made_.size(); ++p) {
    if (!made_[p]) continue;
    const std::vector<double>& l = client(p).latencies();
    out.insert(out.end(), l.begin(), l.end());
  }
  return out;
}

ReliabilityLedger ShardedSwarm::reliability_ledger() const {
  const auto sum = [](std::int64_t& field, const obs::Counter* cell) {
    field += static_cast<std::int64_t>(cell->value());
  };
  ReliabilityLedger total;
  for (const auto& s : shards_) {
    const obs::WireMetrics& m = s->metrics;
    sum(total.issued, m.gets_issued);
    total.ok += m.get_latency->total();
    sum(total.faults, m.get_faults);
    sum(total.rtt_samples, m.rtt_samples);
    sum(total.hedges_launched, m.hedges);
    sum(total.hedge_won, m.hedge_wins);
    sum(total.hedge_cancelled, m.hedge_cancels);
    sum(total.busy_received, m.busy_received);
    sum(total.busy_shed, m.busy_shed);
  }
  return total;
}

std::int64_t ShardedSwarm::messages_sent() const noexcept {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->network.messages_sent();
  return total;
}

std::int64_t ShardedSwarm::bytes_sent() const noexcept {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->network.bytes_sent();
  return total;
}

std::int64_t ShardedSwarm::delivered() const noexcept {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->network.delivered();
  return total;
}

std::int64_t ShardedSwarm::undeliverable() const noexcept {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->network.undeliverable();
  return total;
}

std::int64_t ShardedSwarm::dropped() const noexcept {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->network.dropped();
  return total;
}

std::int64_t ShardedSwarm::corrupted() const noexcept {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->network.corrupted();
  return total;
}

double ShardedSwarm::cross_shard_fraction() const noexcept {
  double cross = 0.0;
  double intra = 0.0;
  for (const auto& s : shards_) {
    cross += static_cast<double>(s->metrics.cross_shard_msgs->value());
    intra += static_cast<double>(s->metrics.intra_shard_msgs->value());
  }
  return cross + intra > 0.0 ? cross / (cross + intra) : 0.0;
}

void ShardedSwarm::add_sink(obs::DeliverySink& sink) {
  for (const auto& s : shards_) s->network.add_sink(sink);
}

void ShardedSwarm::remove_sink(obs::DeliverySink& sink) {
  for (const auto& s : shards_) s->network.remove_sink(sink);
}

obs::Snapshot ShardedSwarm::metrics_snapshot(double time) const {
  obs::Snapshot merged;
  merged.time = time;
  for (const auto& s : shards_) {
    merged.merge_from(s->registry.snapshot(time));
  }
  return merged;
}

}  // namespace lesslog::proto
