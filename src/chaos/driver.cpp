#include "lesslog/chaos/driver.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "lesslog/util/bits.hpp"

namespace lesslog::chaos {

Driver::Driver(ChaosConfig cfg)
    : cfg_(cfg), rng_(cfg.seed ^ 0xC0A0'51ABULL) {
  cfg_.validate();
  proto::ShardedSwarm::Config sc;
  sc.m = cfg_.m;
  sc.b = cfg_.b;
  sc.nodes = cfg_.nodes;
  sc.seed = cfg_.seed;
  sc.shards = cfg_.shards;
  // Ambient loss stays off: loss is expressed through windowed burst
  // rules, so the repair phase after each heal runs on a clean wire. The
  // default base_latency keeps every pairwise lookahead floor positive,
  // so the windowed-parallel schedule always exists.
  sc.net.drop_probability = 0.0;
  sc.net.jitter = cfg_.net_jitter;
  // SWIM runs spread each link's latency by a small deterministic
  // per-pair stagger. abl_membership zeroes net_jitter (jitter draws
  // come from per-shard RNG streams, which would make the trace depend
  // on the layout); without *any* spread every delivery shares one
  // constant latency, so a ping-req fan-out lands at its target as a
  // timestamp tie whose resolution differs between the serial queue
  // and a sharded mailbox drain. The stagger keeps arrival times on
  // distinct links distinct, making delivery order a pure function of
  // time — the last ingredient of shard-count invariance. It only ever
  // *adds* latency, so the pairwise lookahead floor stays valid.
  if (cfg_.swim) sc.net.link_stagger = 0.002;
  sc.client.adaptive = cfg_.adaptive_timeouts;
  sc.client.hedge_percentile = cfg_.hedge_percentile;
  sc.client.suspicion_routing = cfg_.suspicion_routing;
  sc.client.seed = cfg_.seed;  // inert unless the adaptive layer is on
  sc.peer.busy_budget = cfg_.busy_budget;
  sc.peer.busy_refill = cfg_.busy_refill;
  swarm_ = std::make_unique<proto::ShardedSwarm>(sc);
  tally_.resize(cfg_.shards);
  if (cfg_.swim) swim_setup();
}

Driver::~Driver() = default;

void Driver::swim_setup() {
  swim_ = std::make_unique<membership::SwimRuntime>(cfg_.seed, cfg_.m);
  swarm_->add_sink(*swim_);
  swim_->set_truth_provider([this] { return &swarm_->status(); });
  for (std::uint32_t p = 0; p < util::space_size(cfg_.m); ++p) {
    if (swarm_->status().is_live(p)) swim_attach(core::Pid{p});
  }
}

void Driver::swim_drain_confirms() {
  // Detection latency = crash -> earliest TRUE confirm anywhere. A false
  // confirm (partition casualty) never closes a crash's measurement. The
  // sim-time minimum is what makes the curves shard-count invariant: a
  // "first callback wins" hook would record thread arrival order.
  for (const membership::ConfirmEvent& ev : swim_->drain_confirms()) {
    if (ev.false_confirm) continue;
    const auto it = swim_crash_time_.find(ev.subject);
    if (it == swim_crash_time_.end()) continue;
    const double lat = ev.time - it->second.crash_time;
    if (lat < 0.0) continue;
    if (it->second.latency < 0.0 || lat < it->second.latency) {
      it->second.latency = lat;
    }
  }
}

void Driver::swim_attach(core::Pid p) {
  const std::size_t s = swarm_->shard_of(p);
  swim_->attach_peer(swarm_->peer(p), swarm_->engine(s),
                     &swarm_->metrics(s));
}

// ---------------------------------------------------------------------------
// The epoch loop. Every chaos-stream draw happens at the top level (never
// inside a shard worker), and the swarm advances between draws through
// run_until() barriers. Membership ops and GET arrivals are
// pre-materialized into a (time, seq)-ordered timeline per epoch; a
// crash's restart is pushed into the same timeline when the crash fires,
// so a restart due after the epoch's end carries into the next epoch.
// ---------------------------------------------------------------------------

namespace {

/// One top-level action in the run. Kinds other than kRestart resolve
/// their target PID at apply time from ground truth; a restart remembers
/// its crash's victim.
struct TimelineItem {
  double t = 0.0;
  std::uint64_t seq = 0;  ///< push order: total tie-break at equal t
  enum class Kind : std::uint8_t {
    kCrash,
    kDepart,
    kJoin,
    kRestart,
    kGet
  } kind = Kind::kGet;
  std::uint32_t pid = 0;  ///< kRestart only
};

struct TimelineLater {
  bool operator()(const TimelineItem& a, const TimelineItem& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

using Timeline = std::priority_queue<TimelineItem, std::vector<TimelineItem>,
                                     TimelineLater>;

}  // namespace

double Driver::fleet_now() const {
  // Shard clocks agree after run_until(); settle() may leave them at
  // different quiescence points, so the fleet's "now" is the max — any
  // later top-level schedule point is in every shard's future.
  double now = 0.0;
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    now = std::max(now, swarm_->engine(s).now());
  }
  return now;
}

std::uint32_t Driver::random_live_pid() {
  const std::vector<std::uint32_t> live = swarm_->status().live_pids();
  assert(!live.empty());
  return live[rng_.bounded(live.size())];
}

void Driver::issue_get() {
  if (swarm_->status().live_count() == 0) return;
  const core::Pid at{random_live_pid()};
  const core::FileId f{keys_[rng_.bounded(keys_.size())]};
  ++issued_;
  // The callback fires on the issuing client's home shard, so cell
  // `shard_of(at)` has exactly one writer during the window.
  ShardTally* cell = &tally_[swarm_->shard_of(at)];
  swarm_->get(f, swarm_->peer(at).target_of(f), at,
              [cell](const proto::GetResult& res) {
                ++cell->completed;
                if (!res.ok) ++cell->faults;
              });
}

std::int64_t Driver::completed() const {
  std::int64_t sum = 0;
  for (const ShardTally& cell : tally_) sum += cell.completed;
  return sum;
}

std::int64_t Driver::faults() const {
  std::int64_t sum = 0;
  for (const ShardTally& cell : tally_) sum += cell.faults;
  return sum;
}

proto::FaultStats Driver::total_injected() const {
  // Each shard's fault.* cells count every injector outcome since the
  // swarm was built, so they outlive the per-epoch plan reinstalls.
  const auto count = [](const obs::Counter* c) {
    return static_cast<std::int64_t>(c->value());
  };
  proto::FaultStats injected;
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    const obs::WireMetrics& m = swarm_->metrics(s);
    injected.burst_dropped += count(m.injected_burst_drops);
    injected.partition_dropped += count(m.injected_partition_drops);
    injected.duplicated += count(m.injected_duplicates);
    injected.corrupted += count(m.injected_corruptions);
    injected.delay_spikes += count(m.injected_delay_spikes);
  }
  return injected;
}

Report Driver::run() {
  assert(!ran_ && "a Driver runs its schedule once");
  ran_ = true;
  // Keep enough peers alive that every fault-tolerance subtree can stay
  // populated (and the swarm never empties out under a hostile draw).
  min_live_ = std::max<std::uint32_t>(4u, (1u << cfg_.b) + 1u);
  proto::ShardedSwarm& sw = *swarm_;
  Report report;
  report.config = cfg_;

  for (int i = 0; i < cfg_.files; ++i) {
    // Distinct deterministic keys; ψ spreads them over the ID space.
    const std::uint64_t key =
        (cfg_.seed << 20) + static_cast<std::uint64_t>(i) * 7919u + 1u;
    keys_.push_back(key);
    sw.insert_named(key, core::Pid{random_live_pid()});
  }
  sw.settle();

  const double L = cfg_.epoch_length;
  Timeline timeline;
  std::uint64_t seq = 0;

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    // Epoch anchor. Oracle mode keeps the clock-based anchor (pinned by
    // the replay gates). SWIM mode anchors on quiesce_time() —
    // the last *executed* event — because settle() parks the shard
    // clocks on the final window edge, which depends on the window
    // sequence and hence the shard count; every op time, fault window
    // and tick horizon derives from this anchor, so a layout-dependent
    // anchor would skew the whole detection trace. Every scheduled
    // offset below (>= 0.05 * L) dwarfs the clocks' sub-second edge
    // overshoot, so anchoring slightly behind a clock is safe: the next
    // run_until() realigns all clocks at the op time.
    const double now = swim_ ? swarm_->quiesce_time() : fleet_now();
    const double epoch_end = now + L;
    // Per-epoch detector baselines (deltas feed the SWIM audit checks).
    const membership::SwimRuntime::Tally tally_base =
        swim_ ? swim_->tally() : membership::SwimRuntime::Tally{};
    const std::size_t ops_base = record_.ops.size();
    const std::size_t latency_base = swim_detect_latency_.size();
    if (swim_) swim_->arm(epoch_end);
    const proto::FaultPlan plan = make_epoch_plan(cfg_, rng_, epoch, now);
    if (!plan.rules.empty()) {
      // Every shard network runs the same plan: windows are wall-clock
      // intervals and partition groups are PID sets, so each side of a
      // cross-shard edge applies the same rule. Each shard's injector
      // draws its own stream from the shared plan seed; the totals are
      // summed from the shards' cumulative fault.* cells.
      for (std::size_t s = 0; s < cfg_.shards; ++s) {
        sw.network(s).install_fault_plan(plan);
      }
      for (const proto::FaultRule& r : plan.rules) {
        record_.rules.push_back(RuleRecord{epoch, r});
      }
    }

    // Pre-materialize this epoch's membership ops (t then pick, per op,
    // whether enabled or not).
    const int op_count = 1 + static_cast<int>(rng_.bounded(3));
    for (int i = 0; i < op_count; ++i) {
      const double t = now + (0.10 + 0.60 * rng_.uniform01()) * L;
      const std::uint64_t pick = rng_.bounded(4);
      if (pick <= 1) {
        timeline.push({t, seq++, TimelineItem::Kind::kCrash, 0});
      } else if (pick == 2 && cfg_.churn) {
        timeline.push({t, seq++, TimelineItem::Kind::kDepart, 0});
      } else if (pick == 3 && cfg_.churn) {
        timeline.push({t, seq++, TimelineItem::Kind::kJoin, 0});
      }
    }
    // Poisson GET arrivals, pre-drawn from the chaos stream: there are S
    // engine streams, so arrivals come from the one top-level stream.
    if (cfg_.get_rate > 0.0) {
      double t = now + rng_.exponential(cfg_.get_rate);
      while (t < epoch_end) {
        timeline.push({t, seq++, TimelineItem::Kind::kGet, 0});
        t += rng_.exponential(cfg_.get_rate);
      }
    }

    // Apply the timeline. run_until(t) is the barrier seam: all shard
    // clocks align at t, so a top-level mutation here never schedules
    // into any shard's past. Items carried over from a previous epoch
    // (late restarts) may predate this epoch's start; clamp forward —
    // the run never moves backwards.
    double aligned = now;
    while (!timeline.empty() && timeline.top().t < epoch_end) {
      const TimelineItem item = timeline.top();
      timeline.pop();
      const double at = std::max(item.t, aligned);
      sw.run_until(at);
      aligned = at;
      switch (item.kind) {
        case TimelineItem::Kind::kCrash: {
          if (sw.status().live_count() <= min_live_) break;
          const core::Pid victim{random_live_pid()};
          if (cfg_.silent_crashes) {
            sw.crash_silent(victim);
            record_.ops.push_back(
                OpRecord{at, OpKind::kSilentCrash, victim.value()});
            break;  // broken mode: the node never comes back
          }
          if (swim_) {
            // No oracle announcement: the fleet must *detect* this.
            sw.crash_unannounced(victim);
            swim_crash_time_[victim.value()] = CrashSample{at, -1.0};
          } else {
            sw.crash(victim);
          }
          record_.ops.push_back(OpRecord{at, OpKind::kCrash, victim.value()});
          const double back = at + (0.20 + 0.30 * rng_.uniform01()) * L;
          timeline.push(
              {back, seq++, TimelineItem::Kind::kRestart, victim.value()});
          break;
        }
        case TimelineItem::Kind::kRestart: {
          if (sw.status().is_live(item.pid)) break;
          // Close the crash's measurement: finalize the earliest confirm
          // seen so far, or forfeit the sample entirely if the restart
          // outran detection (the node was never confirmed dead during
          // its downtime).
          if (swim_) {
            swim_drain_confirms();
            const auto it = swim_crash_time_.find(item.pid);
            if (it != swim_crash_time_.end()) {
              if (it->second.latency >= 0.0) {
                swim_detect_latency_.push_back(it->second.latency);
              }
              swim_crash_time_.erase(it);
            }
          }
          sw.restart(core::Pid{item.pid});
          if (swim_) swim_attach(core::Pid{item.pid});
          record_.ops.push_back(OpRecord{at, OpKind::kRestart, item.pid});
          break;
        }
        case TimelineItem::Kind::kDepart: {
          if (sw.status().live_count() <= min_live_) break;
          const core::Pid leaver{random_live_pid()};
          sw.depart(leaver);
          record_.ops.push_back(
              OpRecord{at, OpKind::kDepart, leaver.value()});
          break;
        }
        case TimelineItem::Kind::kJoin: {
          if (sw.status().dead_count() == 0) break;
          const core::Pid joined = sw.join();
          if (swim_) swim_attach(joined);
          record_.ops.push_back(OpRecord{at, OpKind::kJoin, joined.value()});
          break;
        }
        case TimelineItem::Kind::kGet:
          issue_get();
          break;
      }
    }

    sw.run_until(epoch_end);
    sw.settle();
    if (swim_) {
      // Detection convergence replaces the oracle reannounce: extend the
      // detector's horizon one protocol period at a time until every live
      // agent's belief equals ground truth (suspects confirmed, false
      // beliefs refuted), bounded by the round cap.
      SwimEpochStats stats;
      while (!swim_->converged(sw.status()) &&
             stats.rounds < kSwimConvergenceRounds) {
        const double t =
            swarm_->quiesce_time() + membership::kProtocolPeriod;
        swim_->arm(t);
        sw.run_until(t);
        sw.settle();
        ++stats.rounds;
      }
      stats.converged = swim_->converged(sw.status());
      // Fold this epoch's confirms and close out detected crashes: once
      // the detector has converged, a crash's earliest confirm is final
      // (any later confirm of the same death has a later timestamp).
      swim_drain_confirms();
      for (auto it = swim_crash_time_.begin();
           it != swim_crash_time_.end();) {
        if (it->second.latency >= 0.0) {
          swim_detect_latency_.push_back(it->second.latency);
          it = swim_crash_time_.erase(it);
        } else {
          ++it;
        }
      }
      const membership::SwimRuntime::Tally tly = swim_->tally();
      stats.clean_epoch =
          plan.rules.empty() && record_.ops.size() == ops_base;
      stats.suspects = tly.suspects - tally_base.suspects;
      stats.false_suspects = tly.false_suspects - tally_base.false_suspects;
      stats.false_confirms = tly.false_confirms - tally_base.false_confirms;
      stats.detection_latency.assign(
          swim_detect_latency_.begin() +
              static_cast<std::ptrdiff_t>(latency_base),
          swim_detect_latency_.end());
      Audit::check_swim(stats, epoch, report.violations);
      report.swim_epochs.push_back(std::move(stats));
    } else if (!cfg_.silent_crashes) {
      // Anti-entropy repair: converge every live peer's liveness view on
      // the clean post-heal wire. Broken mode skips it — that is the
      // broken part the auditor must catch.
      sw.reannounce();
      sw.settle();
    }

    const proto::FaultStats injected = total_injected();
    Audit::check(sw, keys_, injected, issued_, completed(), epoch,
                 report.violations);
    report.injected = injected;
  }

  report.record = record_;
  report.workload_issued = issued_;
  report.workload_completed = completed();
  report.workload_faults = faults();
  report.messages_sent = sw.messages_sent();
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    report.repair_pushes += static_cast<std::int64_t>(
        sw.metrics(s).repair_pushes->value());
  }
  report.reliability = sw.reliability_ledger();
  report.sim_time = swim_ ? swarm_->quiesce_time() : fleet_now();
  if (swim_) {
    report.swim = swim_->tally();
    report.detection_latency = swim_detect_latency_;
  }
  return report;
}

}  // namespace lesslog::chaos
