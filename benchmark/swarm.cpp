// The two simulated-swarm workloads on proto::ShardedSwarm.
//
// swarm_get_m20_s4 — the million-peer read path: 2^20 live peers on four
// shards (range map), 10 ms links with no jitter or loss, 64 files at
// seed-drawn roots, and rounds of one GET per peer from uniform issuers
// (the same GETs every round), issued up front and run to quiescence.
// DRAM-bound hops, fixed-delay event lanes and cross-shard traffic
// through ShardRouter and the window barriers.
//
// swarm_churn_m14 — the write side of the same layers: m = 14, b = 1, one
// shard, 10 +- 5 ms links, a 1024-file Zipf(0.9) catalog whose popular
// set drifts, Poisson GETs, updates at a tenth of the GET rate, one
// announced crash per simulated second with a restart three seconds
// later, and the auto-replication controller with a removal threshold,
// advanced with run_until. FileStore writes, update fan-out, status
// broadcasts and the CowStatus clones they force, reclaim and file-push
// traffic, replica removal, and the jittered wheel path.
//
// The m20 swarm repeats identical rounds and takes each unit's median
// over them (sum_of_unit_medians); churn runs passes of distinct
// schedules. Both scale their timings by HostSpeed.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "layers.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/bits.hpp"
#include "lesslog/util/rng.hpp"
#include "workloads.hpp"

namespace lesslog::benchmark {

namespace {

struct CatalogFile {
  core::FileId file;
  core::Pid target;
};

/// The quiescence identities every swarm run must satisfy.
void check_quiescent(proto::ShardedSwarm& swarm, Result& result,
                     const std::string& what) {
  const proto::ReliabilityLedger l = swarm.reliability_ledger();
  result.gate(l.issued == l.ok + l.faults,
              what + ": client requests issued == ok + faults");
  result.gate(swarm.messages_sent() == swarm.delivered() + swarm.dropped() +
                                           swarm.undeliverable() +
                                           swarm.corrupted(),
              what + ": every datagram sent was delivered or counted lost");
}

void digest_outcome(proto::ShardedSwarm& swarm, Digest& d) {
  for (const auto& [name, value] : swarm.metrics_snapshot().counters) {
    d.add(name);
    d.add(value);
  }
  std::uint64_t served = 0;
  for (std::uint32_t p = 0; p < util::space_size(swarm.width()); ++p) {
    served += static_cast<std::uint64_t>(swarm.peer(core::Pid{p}).served());
  }
  d.add(served);
  d.add(static_cast<std::uint64_t>(swarm.messages_sent()));
}

/// Mean copies held by a peer that holds any (the per-peer store size
/// the FileStore micro-timings use).
std::size_t holder_store_size(proto::ShardedSwarm& swarm) {
  std::size_t copies = 0;
  std::size_t holders = 0;
  for (std::uint32_t p = 0; p < util::space_size(swarm.width()); ++p) {
    const std::size_t n = swarm.peer(core::Pid{p}).store().size();
    copies += n;
    holders += n > 0 ? 1 : 0;
  }
  return holders == 0 ? 1 : (copies + holders / 2) / holders;
}

std::uint64_t counter(const obs::Snapshot& s, std::string_view name) {
  const std::uint64_t* v = s.counter(name);
  return v == nullptr ? 0 : *v;
}

/// Runs to `until` in run_until slices of `width`, timing each (the
/// traced pass's window statistics) and cutting the recorders' gap
/// chains between slices.
std::int64_t run_sliced(proto::ShardedSwarm& swarm, double until,
                        double width,
                        const std::vector<DeliveryRecorder*>& recorders,
                        std::vector<double>& slice_us) {
  std::int64_t events = 0;
  double t = swarm.engine(0).now();
  while (t < until) {
    t = std::min(until, t + width);
    const Clock::time_point t0 = Clock::now();
    events += swarm.run_until(t);
    slice_us.push_back(1e6 * seconds_since(t0));
    for (DeliveryRecorder* r : recorders) r->cut();
  }
  return events;
}

void report_slices(std::vector<double> slice_us, Result& result) {
  std::sort(slice_us.begin(), slice_us.end());
  result.detail("sim.window_us.p50", percentile_sorted(slice_us, 50.0), "us");
  result.detail("sim.window_us.p99", percentile_sorted(slice_us, 99.0), "us");
}

double hops_percentile(std::vector<double> hops, double q) {
  std::sort(hops.begin(), hops.end());
  return percentile_sorted(hops, q);
}

// -- swarm_get_m20_s4 ---------------------------------------------------------

constexpr std::size_t kGetShards = 4;
constexpr double kGetLink = 0.010;

class GetSwarm {
 public:
  explicit GetSwarm(const RunArgs& args) {
    proto::ShardedSwarm::Config cfg;
    cfg.m = args.smoke ? 16 : 20;
    cfg.b = 0;
    cfg.nodes = util::space_size(cfg.m);
    cfg.seed = args.seed;
    cfg.shards = kGetShards;
    cfg.shard_map = proto::ShardMap::Kind::kRange;
    cfg.net.base_latency = kGetLink;
    cfg.net.jitter = 0.0;
    cfg.net.drop_probability = 0.0;
    cfg.client.timeout = 0.25;  // > the longest path, (m + 2) * 10 ms
    Clock::time_point t0 = Clock::now();
    swarm_ = std::make_unique<proto::ShardedSwarm>(cfg);
    construct_s = seconds_since(t0);

    t0 = Clock::now();
    util::Rng rng(args.seed ^ 0xCA7A1060ULL);
    for (std::uint64_t i = 0; i < 64; ++i) {
      const CatalogFile f{
          core::FileId{0x5EED0000ULL + i},
          core::Pid{static_cast<std::uint32_t>(rng.bounded(cfg.nodes))}};
      files_.push_back(f);
      swarm_->insert(f.file, f.target, core::Pid{0});
    }
    swarm_->settle();
    catalog_s = seconds_since(t0);
  }

  [[nodiscard]] proto::ShardedSwarm& swarm() { return *swarm_; }
  /// One GET per peer: every round issues the same seed-drawn GETs.
  [[nodiscard]] std::int64_t gets_per_round() const {
    return static_cast<std::int64_t>(util::space_size(swarm_->width()));
  }

  /// Which peers hold how many copies: identical for every set-up.
  [[nodiscard]] std::string placement_digest() {
    Digest d;
    for (std::uint32_t p = 0; p < util::space_size(swarm_->width()); ++p) {
      const std::size_t n = swarm_->peer(core::Pid{p}).store().size();
      if (n > 0) {
        d.add(std::uint64_t{p});
        d.add(std::uint64_t{n});
      }
    }
    return d.hex();
  }

  /// Issues one round of GETs, the same ones every round (drawn from the
  /// seed), so rounds are repetitions of identical work. `hops` (traced)
  /// receives each GET's hop count, -1 for a failure.
  void issue(std::uint64_t seed, std::vector<std::int16_t>* hops) {
    util::Rng rng(seed ^ 0x6E75ULL);
    const auto nodes = util::space_size(swarm_->width());
    const std::int64_t n = gets_per_round();
    if (hops != nullptr) hops->assign(static_cast<std::size_t>(n), 0);
    for (std::int64_t i = 0; i < n; ++i) {
      const CatalogFile& f = files_[rng.bounded(files_.size())];
      const core::Pid at{static_cast<std::uint32_t>(rng.bounded(nodes))};
      if (hops == nullptr) {
        swarm_->get(f.file, f.target, at);
      } else {
        std::int16_t* slot = &(*hops)[static_cast<std::size_t>(i)];
        swarm_->get(f.file, f.target, at,
                    [slot](const proto::GetResult& r) {
                      *slot = static_cast<std::int16_t>(r.ok ? r.hops : -1);
                    });
      }
    }
  }

  double construct_s = 0.0;
  double catalog_s = 0.0;

 private:
  std::unique_ptr<proto::ShardedSwarm> swarm_;
  std::vector<CatalogFile> files_;
};

/// Rounds per second of run length: seven at the default 20 s, each about
/// two and a half seconds on the 4-vCPU host. The count is fixed by the
/// run length alone: every round adds its latencies to the clients' logs,
/// so a count that followed the host's speed would move peak RSS.
constexpr double kRoundsPerS = 0.35;

/// Simulated time a round runs in slices before its final settle: the
/// client timeout (whose stale timers still fire) plus a margin.
constexpr double kRoundSpan = 0.3;

struct Round {
  std::int64_t gets = 0;
  std::int64_t ok = 0;
  std::int64_t faults = 0;
  std::int64_t events = 0;
  double wall_s = 0.0;
  double issue_s = 0.0;
  /// The issue, every run_until slice, and the final settle: identical
  /// work in every round.
  UnitTimes units;
};

/// One round: issue the GETs, run them in run_until slices whose edges
/// sit half a lookahead off the 10 ms event grid (so every round splits
/// its identical events into identical slices), then settle. Recorders
/// (traced) have their gap chains cut between slices.
Round run_round(GetSwarm& g, const RunArgs& args, const std::string& label,
                const std::vector<DeliveryRecorder*>& recorders,
                std::vector<std::int16_t>* hops, Result& result) {
  proto::ShardedSwarm& swarm = g.swarm();
  const proto::ReliabilityLedger before = swarm.reliability_ledger();
  Round r;
  const auto timed = [&](auto&& body) {
    r.units.time(body);
    for (DeliveryRecorder* rec : recorders) rec->cut();
    host_speed().sample();  // between units, while the shards are idle
  };
  const double start = swarm.engine(0).now();
  timed([&] { g.issue(args.seed, hops); });
  r.issue_s = 1e-9 * r.units.wall_ns.back();
  for (int k = 1; (k - 0.5) * kGetLink < kRoundSpan; ++k) {
    const double until = start + (k - 0.5) * kGetLink;
    timed([&] { r.events += swarm.run_until(until); });
  }
  timed([&] { r.events += swarm.settle(); });
  r.wall_s = r.units.wall_s();

  const proto::ReliabilityLedger after = swarm.reliability_ledger();
  r.gets = after.issued - before.issued;
  r.ok = after.ok - before.ok;
  r.faults = after.faults - before.faults;
  check_quiescent(swarm, result, label);
  result.gate(r.gets == g.gets_per_round() && r.ok == r.gets,
              label + ": every GET resolved ok");
  return r;
}

std::string round_digest(proto::ShardedSwarm& swarm) {
  Digest d;
  for (const double l : swarm.all_latencies()) d.add(l);
  digest_outcome(swarm, d);
  return d.hex();
}

void traced_get_pass(GetSwarm& g, const RunArgs& args, const Round& plain,
                     Result& result) {
  proto::ShardedSwarm& swarm = g.swarm();
  std::vector<std::unique_ptr<DeliveryRecorder>> owned;
  std::vector<DeliveryRecorder*> recorders;
  for (std::size_t s = 0; s < swarm.shards(); ++s) {
    owned.push_back(std::make_unique<DeliveryRecorder>(s, swarm.width()));
    recorders.push_back(owned.back().get());
    swarm.network(s).add_sink(*owned.back());
  }
  const obs::Snapshot snap0 = swarm.metrics_snapshot();
  const std::int64_t sent0 = swarm.messages_sent();
  const std::int64_t delivered0 = swarm.delivered();

  std::vector<std::int16_t> hops;
  const Round traced =
      run_round(g, args, "traced round", recorders, &hops, result);
  for (std::size_t s = 0; s < swarm.shards(); ++s) {
    swarm.network(s).remove_sink(*owned[s]);
  }
  const std::int64_t events = traced.events;
  // The slices alone: the issue and the final settle are not windows.
  std::vector<double> slice_us;
  for (std::size_t i = 1; i + 1 < traced.units.wall_ns.size(); ++i) {
    slice_us.push_back(1e-3 * traced.units.wall_ns[i]);
  }
  const double slices_s = traced.wall_s - traced.issue_s;

  const obs::Snapshot snap = swarm.metrics_snapshot();
  const auto gets = static_cast<double>(hops.size());
  std::vector<double> hop_values;
  for (const std::int16_t h : hops) {
    if (h >= 0) hop_values.push_back(h);
  }
  const double cross = static_cast<double>(
      counter(snap, "net.cross_shard_msgs") -
      counter(snap0, "net.cross_shard_msgs"));
  const double sent = static_cast<double>(swarm.messages_sent() - sent0);
  const double delivered =
      static_cast<double>(swarm.delivered() - delivered0);

  LayerCounts counts;
  counts.events = static_cast<double>(events);
  counts.windows = static_cast<double>(slice_us.size());
  counts.msgs_per_get = sent / gets;
  counts.hops_p50 = hops_percentile(hop_values, 50.0);
  counts.hops_p99 = hops_percentile(hop_values, 99.0);
  counts.router_cross_frac = cross / std::max(sent, 1.0);
  counts.client_retries = static_cast<double>(
      counter(snap, "client.retries") - counter(snap0, "client.retries"));
  counts.client_timeouts = static_cast<double>(
      counter(snap, "client.timeouts") - counter(snap0, "client.timeouts"));
  counts.setup_construct_frac =
      g.construct_s / (g.construct_s + g.catalog_s);
  counts.trace_overhead_frac =
      (traced.wall_s - plain.wall_s) / plain.wall_s;
  counts.sim_events_per_s = static_cast<double>(plain.events) / plain.wall_s;
  counts.get_ok_frac =
      static_cast<double>(traced.ok) / static_cast<double>(traced.gets);
  merge_recorders({recorders.begin(), recorders.end()}, counts, result);

  LayerInputs in;
  in.m = swarm.width();
  in.status = &swarm.status();
  for (const DeliveryRecorder* r : recorders) {
    in.mix.insert(in.mix.end(), r->mix.begin(), r->mix.end());
  }
  in.store_size = holder_store_size(swarm);
  in.router_volume = static_cast<std::size_t>(
      cross / std::max<double>(1.0, static_cast<double>(slice_us.size())));
  in.seed = args.seed;
  const LayerCosts costs = measure_layers(in);

  // Intra-shard deliveries and client timers ride the fixed-delay lanes;
  // cross-shard parcels pass the router and are batch-admitted to the
  // wheel at the barrier.
  const double get_deliveries = counts.msgs[1];
  Ledger ledger;
  ledger.add("proto.encode", sent, costs.encode);
  ledger.add("proto.decode", delivered, costs.decode);
  ledger.add("sim.queue_lane", static_cast<double>(events) - cross,
             costs.queue_lane);
  ledger.add("sim.queue_wheel", cross, costs.queue_wheel);
  ledger.add("proto.router", cross, costs.router);
  ledger.add("core.filestore_serve", get_deliveries, costs.filestore_serve);
  ledger.add("core.find_live_node", get_deliveries, costs.find_live_dense);
  counts.explained_frac = ledger.print(
      "swarm_get_m20_s4 traced round",
      traced.issue_s + slices_s * static_cast<double>(swarm.shards()));
  report_layers(costs, counts, result);
  report_slices(std::move(slice_us), result);
  result.detail("trace.overhead_s", traced.wall_s - plain.wall_s, "s");

  SpanLog spans;
  for (const DeliveryRecorder* r : recorders) r->flush_spans(spans);
  result.gate(spans.write(args.out_dir + "/spans.swarm_get_m20_s4.seed" +
                          std::to_string(args.seed) + ".jsonl"),
              "spans written");
  result.attempted += traced.gets;
  result.failed += traced.faults;
}

// -- swarm_churn_m14 ----------------------------------------------------------

struct ChurnParams {
  int m = 14;
  std::uint32_t files = 1024;
  double get_rate = 15000.0;  ///< simulated GETs per simulated second
  int seconds = 30;           ///< simulated seconds per pass
  double capacity = 100.0;    ///< auto-replication: req/s per peer window
  double removal = 10.0;      ///< auto-replication: cold-replica threshold
  int restart_after = 3;      ///< a crashed peer restarts this much later
  /// Every this many simulated seconds the popular set moves a third of
  /// the catalog on, so replicas of the old hot files go cold and the
  /// controller's removal path runs.
  int drift_every = 10;
};

/// Passes per second of run length: five at the default 20 s, each about
/// three seconds on the 4-vCPU host. Each pass runs its own schedule (see
/// pass_seed): the work per GET moves by several percent from one seed's
/// schedule to the next, and five schedules a run keep that from setting
/// the run's result. The count is fixed by the run length alone, so one
/// seed always gives the same inputs.
constexpr double kPassesPerS = 0.25;

/// Pass k of a run on --seed.
std::uint64_t pass_seed(const RunArgs& args, int k) {
  return 64 * args.seed + static_cast<std::uint64_t>(k);
}

ChurnParams churn_params(bool smoke) {
  ChurnParams p;
  if (smoke) {
    p.m = 10;
    p.files = 128;
    p.get_rate = 2000.0;
    p.seconds = 6;
    p.drift_every = 3;
  }
  return p;
}

/// One churn pass: its own swarm, set up and then advanced through the
/// whole simulated schedule. A pass is a pure function of the seed.
class ChurnPass {
 public:
  ChurnPass(std::uint64_t seed, const ChurnParams& p)
      : p_(p), rng_(seed ^ 0xC4012ULL) {
    proto::ShardedSwarm::Config cfg;
    cfg.m = p.m;
    cfg.b = 1;
    cfg.nodes = util::space_size(p.m);
    cfg.seed = seed;
    cfg.shards = 1;
    cfg.net.base_latency = 0.005;
    cfg.net.jitter = 0.010;
    cfg.net.drop_probability = 0.0;
    cfg.client.timeout = 0.5;
    Clock::time_point t0 = Clock::now();
    swarm_ = std::make_unique<proto::ShardedSwarm>(cfg);
    construct_s = seconds_since(t0);

    t0 = Clock::now();
    for (std::uint32_t i = 0; i < p.files; ++i) {
      const core::Pid issuer{
          static_cast<std::uint32_t>(rng_.bounded(cfg.nodes))};
      const core::FileId f =
          swarm_->insert_named(util::splitmix64_mix(seed * 7919 + i),
                               issuer);
      files_.push_back({f, swarm_->peer(issuer).target_of(f)});
    }
    swarm_->settle();
    catalog_s = seconds_since(t0);

    // Zipf(0.9) popularity over catalog order.
    double total = 0.0;
    for (std::uint32_t k = 1; k <= p.files; ++k) {
      total += std::pow(static_cast<double>(k), -0.9);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    versions_.assign(p.files, 0);
    inflight_.assign(cfg.nodes, 0);
  }
  ChurnPass(const ChurnPass&) = delete;
  ChurnPass& operator=(const ChurnPass&) = delete;

  /// Runs the schedule. `recorder` (traced) switches each simulated second
  /// to timed 10 ms run_until slices.
  void run(DeliveryRecorder* recorder, std::vector<double>* slice_us) {
    proto::ShardedSwarm& sw = *swarm_;
    const double t0 = sw.engine(0).now();
    const double stop = t0 + p_.seconds;
    sw.engine(0).poisson_process(p_.get_rate, stop, [this] { issue_get(); });
    sw.engine(0).poisson_process(p_.get_rate / 10.0, stop,
                                 [this] { issue_update(); });
    sw.enable_auto_replication(p_.capacity, 1.0, stop, p_.removal);

    std::vector<core::Pid> crashed;
    for (int k = 1; k <= p_.seconds; ++k) {
      // Ten timed units per simulated second; the traced pass slices
      // each further, at 10 ms, for its window statistics.
      for (int u = 1; u <= 10; ++u) {
        const double until = t0 + (k - 1) + 0.1 * u;
        units.time([&] {
          events += recorder == nullptr
                        ? sw.run_until(until)
                        : run_sliced(sw, until, 0.010, {recorder}, *slice_us);
        });
        host_speed().sample();
      }
      units.time([&] {
        if (k > p_.restart_after) {
          sw.restart(
              crashed[static_cast<std::size_t>(k - p_.restart_after - 1)]);
        }
        crashed.push_back(pick_victim());
        sw.crash(crashed.back());
        if (k % p_.drift_every == 0) shift_ += files_.size() / 3;
      });
    }
    // Drain: retries, pushes and the controller's last ticks.
    units.time([&] { events += sw.settle(); });
    work_s = units.wall_s();
  }

  [[nodiscard]] std::string digest() {
    Digest d;
    for (const double l : latencies) d.add(l);
    for (const double h : hops) d.add(h);
    d.add(static_cast<std::uint64_t>(gets));
    d.add(static_cast<std::uint64_t>(faults));
    d.add(static_cast<std::uint64_t>(updates));
    d.add(static_cast<std::uint64_t>(events));
    d.add(static_cast<std::uint64_t>(swarm_->auto_replicas()));
    d.add(static_cast<std::uint64_t>(swarm_->auto_removals()));
    digest_outcome(*swarm_, d);
    return d.hex();
  }

  [[nodiscard]] proto::ShardedSwarm& swarm() { return *swarm_; }

  double construct_s = 0.0;
  double catalog_s = 0.0;
  double work_s = 0.0;
  /// Each tenth of a simulated second, the control operations at each
  /// second, the final drain: identical work in every pass of one seed.
  UnitTimes units;
  std::int64_t events = 0;
  std::int64_t gets = 0;
  std::int64_t ok = 0;
  std::int64_t faults = 0;
  std::int64_t updates = 0;
  std::vector<double> latencies;  ///< simulated seconds, completion order
  std::vector<double> hops;

 private:
  [[nodiscard]] core::Pid live_peer(bool idle) {
    const util::StatusWord& live = swarm_->status();
    for (;;) {
      const auto p =
          static_cast<std::uint32_t>(rng_.bounded(live.capacity()));
      if (live.is_live(p) && (!idle || inflight_[p] == 0)) {
        return core::Pid{p};
      }
    }
  }

  /// A crash victim with no GET of its own in flight: a crashed issuer
  /// would fail its pending GETs, and the workload keeps every GET
  /// answerable.
  [[nodiscard]] core::Pid pick_victim() { return live_peer(true); }

  [[nodiscard]] const CatalogFile& zipf_file() {
    const double u = rng_.uniform01();
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(it - zipf_cdf_.begin());
    return files_[(std::min(rank, files_.size() - 1) + shift_) %
                  files_.size()];
  }

  void issue_get() {
    const core::Pid at = live_peer(false);
    const CatalogFile& f = zipf_file();
    ++inflight_[at.value()];
    ++gets;
    swarm_->get(f.file, f.target, at, [this, at](const proto::GetResult& r) {
      --inflight_[at.value()];
      if (r.ok) {
        ++ok;
        latencies.push_back(r.latency);
        hops.push_back(r.hops);
      } else {
        ++faults;
      }
    });
  }

  void issue_update() {
    const core::Pid at = live_peer(false);
    const CatalogFile& f = zipf_file();
    const auto index = static_cast<std::size_t>(&f - files_.data());
    ++updates;
    swarm_->update(f.file, f.target, ++versions_[index], at);
  }

  ChurnParams p_;
  util::Rng rng_;
  std::unique_ptr<proto::ShardedSwarm> swarm_;
  std::vector<CatalogFile> files_;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint64_t> versions_;
  std::vector<std::int32_t> inflight_;
  std::size_t shift_ = 0;  ///< popularity rank -> catalog offset
};

void check_pass(ChurnPass& pass, Result& result, const std::string& what) {
  check_quiescent(pass.swarm(), result, what);
  result.gate(pass.gets == pass.ok + pass.faults,
              what + ": GETs issued == ok + faults");
  result.attempted += pass.gets;
  result.failed += pass.faults;
}

void traced_churn_pass(const RunArgs& args, const ChurnParams& p,
                       const ChurnPass& plain, const std::string& plain_digest,
                       Result& result) {
  ChurnPass pass(pass_seed(args, 0), p);
  DeliveryRecorder recorder(0, p.m);
  pass.swarm().network(0).add_sink(recorder);
  std::vector<double> slice_us;
  pass.run(&recorder, &slice_us);
  pass.swarm().network(0).remove_sink(recorder);
  check_pass(pass, result, "traced pass");
  result.gate(pass.digest() == plain_digest,
              "the traced pass reproduces the untraced outcome digest");

  proto::ShardedSwarm& swarm = pass.swarm();
  const obs::Snapshot snap = swarm.metrics_snapshot();
  LayerCounts counts;
  counts.events = static_cast<double>(pass.events);
  counts.windows = static_cast<double>(slice_us.size());
  counts.msgs_per_get = static_cast<double>(swarm.messages_sent()) /
                        static_cast<double>(pass.gets);
  counts.hops_p50 = hops_percentile(pass.hops, 50.0);
  counts.hops_p99 = hops_percentile(pass.hops, 99.0);
  counts.client_retries =
      static_cast<double>(counter(snap, "client.retries"));
  counts.client_timeouts =
      static_cast<double>(counter(snap, "client.timeouts"));
  counts.auto_replicas = static_cast<double>(swarm.auto_replicas());
  counts.auto_removals = static_cast<double>(swarm.auto_removals());
  counts.setup_construct_frac =
      pass.construct_s / (pass.construct_s + pass.catalog_s);
  counts.trace_overhead_frac = (pass.work_s - plain.work_s) / plain.work_s;
  counts.sim_events_per_s = static_cast<double>(plain.events) / plain.work_s;
  counts.get_ok_frac =
      static_cast<double>(pass.ok) / static_cast<double>(pass.gets);
  merge_recorders({&recorder}, counts, result);
  counts.update_fanout =
      counts.msgs[static_cast<std::size_t>(proto::MsgType::kUpdatePush)] /
      static_cast<double>(std::max<std::int64_t>(pass.updates, 1));

  LayerInputs in;
  in.m = p.m;
  in.status = &swarm.status();
  in.mix = recorder.mix;
  in.store_size = holder_store_size(swarm);
  in.seed = args.seed;
  const LayerCosts costs = measure_layers(in);

  // Jittered deliveries take the wheel; client and push timers the lanes.
  const auto sent = static_cast<double>(swarm.messages_sent());
  const auto delivered = static_cast<double>(swarm.delivered());
  const auto& msgs = counts.msgs;
  const double writes = msgs[3] + msgs[5] + msgs[6] + msgs[8];
  Ledger ledger;
  ledger.add("proto.encode", sent, costs.encode);
  ledger.add("proto.decode", delivered, costs.decode);
  ledger.add("sim.queue_wheel", delivered, costs.queue_wheel);
  ledger.add("sim.queue_lane", static_cast<double>(pass.events) - delivered,
             costs.queue_lane);
  ledger.add("core.filestore_serve", msgs[1], costs.filestore_serve);
  ledger.add("core.find_live_node", msgs[1], costs.find_live_dense);
  ledger.add("core.filestore_write", writes, costs.filestore_write);
  ledger.add("util.cow_mutate", static_cast<double>(recorder.status_receivers),
             costs.cow_mutate);
  counts.explained_frac =
      ledger.print("swarm_churn_m14 traced pass", pass.work_s);
  report_layers(costs, counts, result);
  report_slices(std::move(slice_us), result);
  result.detail("trace.overhead_s", pass.work_s - plain.work_s, "s");

  SpanLog spans;
  recorder.flush_spans(spans);
  result.gate(spans.write(args.out_dir + "/spans.swarm_churn_m14.seed" +
                          std::to_string(args.seed) + ".jsonl"),
              "spans written");
}

}  // namespace

void run_swarm_get(const RunArgs& args, Result& result) {
  const int setups = args.smoke || args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<GetSwarm> g;
  std::string placement;
  for (int i = 0; i < setups; ++i) {
    g.reset();  // one million-peer swarm in memory at a time
    g = std::make_unique<GetSwarm>(args);
    setup_s.push_back(g->construct_s + g->catalog_s);
    const std::string d = g->placement_digest();
    if (i > 0) {
      result.gate(d == placement, "set-up " + std::to_string(i + 1) +
                                      " places the catalog identically");
    }
    placement = d;
    std::cout << "set-up " << i + 1 << ": construct " << g->construct_s
              << " s, catalog " << g->catalog_s << " s\n";
  }
  std::cout << "catalog placement digest: " << placement << "\n";

  std::vector<Round> rounds{run_round(*g, args, "round 1", {}, nullptr, result)};
  const std::string digest = round_digest(g->swarm());
  std::cout << "outcome_digest (round 1): " << digest << "\n";

  if (args.trace) {
    result.attempted += rounds[0].gets;
    result.failed += rounds[0].faults;
    traced_get_pass(*g, args, rounds[0], result);
    return;
  }

  const int total =
      args.smoke
          ? 1
          : std::max(2, static_cast<int>(std::lround(kRoundsPerS * args.seconds)));
  while (static_cast<int>(rounds.size()) < total) {
    rounds.push_back(run_round(*g, args,
                               "round " + std::to_string(rounds.size() + 1),
                               {}, nullptr, result));
  }
  // Rounds repeat identical work unit for unit: a round's typical time is
  // the sum of each unit's median over the rounds.
  std::vector<std::vector<double>> unit_ns;
  std::vector<std::vector<double>> unit_cpu_ns;
  double gets = 0.0;
  double ok = 0.0;
  for (const Round& r : rounds) {
    unit_ns.push_back(r.units.wall_ns);
    unit_cpu_ns.push_back(r.units.cpu_ns);
    gets += static_cast<double>(r.gets);
    ok += static_cast<double>(r.ok);
    result.attempted += r.gets;
    result.failed += r.faults;
  }
  const double typical_s = 1e-9 * sum_of_unit_medians(unit_ns);
  const auto per_round = static_cast<double>(g->gets_per_round());
  const double cpu_us = 1e-3 * sum_of_unit_medians(unit_cpu_ns) / per_round;
  const HostSpeed& host = host_speed();
  const double slowdown = host.slowdown();
  result.end_to_end("setup_s", median(setup_s), "s");
  result.end_to_end("peak_rss_mb", read_proc().value().peak_rss_mb, "MB");
  result.end_to_end("ops_per_s", per_round / typical_s * slowdown, "1/s");
  result.end_to_end("cpu_us_per_op", cpu_us / slowdown, "us");
  host.report(result);
  result.detail("ops_per_s.measured", per_round / typical_s, "1/s");
  result.detail("cpu_us_per_op.measured", cpu_us, "us");
  result.detail("sim_events_per_s",
                static_cast<double>(rounds[0].events) / typical_s, "1/s");
  result.detail("get_ok_frac", ok / gets, "frac");
  result.detail("rounds", static_cast<double>(rounds.size()), "count");
  result.detail("setup.construct_s", g->construct_s, "s");
  result.detail("setup.catalog_s", g->catalog_s, "s");
  result.detail("router_cross_frac", g->swarm().cross_shard_fraction(),
                "frac");
}

void run_swarm_churn(const RunArgs& args, Result& result) {
  const ChurnParams p = churn_params(args.smoke);
  const int passes =
      args.smoke || args.trace
          ? 1
          : std::max(1, static_cast<int>(std::lround(kPassesPerS * args.seconds)));
  std::cout << "churn: m=" << p.m << ", " << p.files << " files, "
            << p.get_rate << " GET/s for " << p.seconds << " simulated s, "
            << passes << " passes, seed " << args.seed << "\n";
  std::vector<double> setup_s;
  double unit_ns = 0.0;
  double unit_cpu_ns = 0.0;
  double gets = 0.0;
  double events = 0.0;
  std::vector<double> latencies;  // simulated, first pass
  std::int64_t removals = 0;
  std::int64_t replicas = 0;
  std::int64_t updates = 0;
  Digest digest;
  for (int k = 0; k < passes; ++k) {
    // Set-up alone takes milliseconds and swings with what the host runs
    // beside it: time more of them than the passes provide, spread over
    // the run.
    for (int i = 0; i < (args.trace ? 0 : 2); ++i) {
      const ChurnPass only(pass_seed(args, k), p);
      setup_s.push_back(only.construct_s + only.catalog_s);
    }
    ChurnPass pass(pass_seed(args, k), p);
    pass.run(nullptr, nullptr);
    const std::string label = "pass " + std::to_string(k + 1);
    check_pass(pass, result, label);
    const std::string d = pass.digest();
    digest.add(d);
    std::cout << label << ": set-up " << pass.construct_s + pass.catalog_s
              << " s, work " << pass.work_s << " s, " << pass.gets
              << " GETs, " << pass.updates << " updates, " << pass.events
              << " events, " << pass.swarm().auto_replicas()
              << " auto-replicas, outcome_digest " << d << "\n";
    if (args.trace) {
      traced_churn_pass(args, p, pass, d, result);
      return;
    }
    setup_s.push_back(pass.construct_s + pass.catalog_s);
    for (const double ns : pass.units.wall_ns) unit_ns += ns;
    for (const double ns : pass.units.cpu_ns) unit_cpu_ns += ns;
    gets += static_cast<double>(pass.gets);
    events += static_cast<double>(pass.events);
    if (k == 0) latencies = pass.latencies;
    removals += pass.swarm().auto_removals();
    replicas += pass.swarm().auto_replicas();
    updates += pass.updates;
  }
  std::cout << "outcome_digest: " << digest.hex() << "\n";

  const double work_s = 1e-9 * unit_ns;
  const HostSpeed& host = host_speed();
  const double slowdown = host.slowdown();
  std::sort(latencies.begin(), latencies.end());
  result.end_to_end("setup_s", median(setup_s) / slowdown, "s");
  result.end_to_end("peak_rss_mb", read_proc().value().peak_rss_mb, "MB");
  result.end_to_end("ops_per_s", gets / work_s * slowdown, "1/s");
  result.end_to_end("cpu_us_per_op", 1e-3 * unit_cpu_ns / gets / slowdown,
                    "us");
  host.report(result);
  result.detail("setup_s.measured", median(setup_s), "s");
  result.detail("ops_per_s.measured", gets / work_s, "1/s");
  result.detail("cpu_us_per_op.measured", 1e-3 * unit_cpu_ns / gets, "us");
  result.detail("sim_events_per_s", events / work_s, "1/s");
  result.detail("passes", static_cast<double>(passes), "count");
  result.detail("get_ok_frac", 1.0 - static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted),
                "frac");
  result.detail("updates", static_cast<double>(updates), "count");
  result.detail("auto_replicas", static_cast<double>(replicas), "count");
  result.detail("auto_removals", static_cast<double>(removals), "count");
  result.detail("sim_get_latency_ms.p50",
                1e3 * percentile_sorted(latencies, 50.0), "ms");
  result.detail("sim_get_latency_ms.p99",
                1e3 * percentile_sorted(latencies, 99.0), "ms");
}

}  // namespace lesslog::benchmark
