#include "lesslog/chaos/schedule.hpp"

#include <cmath>
#include <stdexcept>

#include "lesslog/util/bits.hpp"

namespace lesslog::chaos {

void ChaosConfig::validate() const {
  if (m < 1 || m > 20) {
    throw std::invalid_argument("ChaosConfig: m must be in [1, 20]");
  }
  if (b < 0 || b >= m) {
    throw std::invalid_argument("ChaosConfig: b must be in [0, m)");
  }
  if (nodes < 2 || nodes > util::space_size(m)) {
    throw std::invalid_argument("ChaosConfig: nodes must be in [2, 2^m]");
  }
  if (epochs < 1) {
    throw std::invalid_argument("ChaosConfig: epochs must be positive");
  }
  if (std::isnan(epoch_length) || epoch_length <= 0.0) {
    throw std::invalid_argument(
        "ChaosConfig: epoch_length must be positive");
  }
  if (!(fault_intensity >= 0.0 && fault_intensity <= 1.0)) {
    throw std::invalid_argument(
        "ChaosConfig: fault_intensity must be in [0, 1]");
  }
  // files == 0 is the membership-only configuration (abl_membership):
  // with no catalog there is no placement or repair traffic, so nothing
  // in the run consumes a shard-seeded engine RNG stream and the whole
  // detection trace is identical for every shard count.
  if (files < 0) {
    throw std::invalid_argument("ChaosConfig: files must be non-negative");
  }
  if (std::isnan(get_rate) || get_rate < 0.0) {
    throw std::invalid_argument(
        "ChaosConfig: get_rate must be non-negative");
  }
  if (get_rate > 0.0 && files < 1) {
    throw std::invalid_argument(
        "ChaosConfig: a GET workload (get_rate > 0) needs files >= 1");
  }
  if (shards < 1 || shards > util::space_size(m)) {
    throw std::invalid_argument("ChaosConfig: shards must be in [1, 2^m]");
  }
  if (swim && silent_crashes) {
    throw std::invalid_argument(
        "ChaosConfig: swim and silent_crashes are exclusive (SWIM's whole "
        "point is detecting unannounced crashes)");
  }
  if (std::isnan(net_jitter) || net_jitter < 0.0) {
    throw std::invalid_argument(
        "ChaosConfig: net_jitter must be non-negative");
  }
  if (std::isnan(hedge_percentile) ||
      (hedge_percentile != 0.0 &&
       (hedge_percentile < 0.5 || hedge_percentile >= 1.0))) {
    throw std::invalid_argument(
        "ChaosConfig: hedge_percentile must be 0 (off) or in [0.5, 1)");
  }
  if (busy_budget < 0) {
    throw std::invalid_argument(
        "ChaosConfig: busy_budget must be non-negative");
  }
  if (std::isnan(busy_refill) || busy_refill < 0.0) {
    throw std::invalid_argument(
        "ChaosConfig: busy_refill must be non-negative");
  }
  if (busy_budget > 0 && busy_refill <= 0.0) {
    throw std::invalid_argument(
        "ChaosConfig: a positive busy_budget needs a positive busy_refill");
  }
}

const char* op_kind_name(OpKind k) noexcept {
  switch (k) {
    case OpKind::kCrash: return "crash";
    case OpKind::kRestart: return "restart";
    case OpKind::kDepart: return "depart";
    case OpKind::kJoin: return "join";
    case OpKind::kSilentCrash: return "silent_crash";
  }
  return "???";
}

namespace {

/// A window inside the epoch: starts in the first 40%, closes before 95%
/// of the epoch has passed (the settle point is always fault-free).
struct Window {
  double start;
  double stop;
};

Window draw_window(util::Rng& rng, double now, double length) {
  const double start = now + (0.05 + 0.35 * rng.uniform01()) * length;
  const double stop =
      std::min(start + (0.20 + 0.40 * rng.uniform01()) * length,
               now + 0.95 * length);
  return {start, stop};
}

}  // namespace

proto::FaultPlan make_epoch_plan(const ChaosConfig& cfg, util::Rng& rng,
                                 int epoch, double now) {
  const double I = cfg.fault_intensity;
  const double L = cfg.epoch_length;
  proto::FaultPlan plan;
  // Per-epoch injector stream: distinct per (config seed, epoch), so
  // reinstalling a plan each epoch never replays the previous epoch's
  // fault decisions.
  plan.seed =
      cfg.seed ^ (std::uint64_t{0x9E3779B97F4A7C15u} *
                  static_cast<std::uint64_t>(epoch + 1));
  if (I <= 0.0) return plan;
  if (cfg.bursts) {
    const Window w = draw_window(rng, now, L);
    plan.rules.push_back(proto::FaultRule::burst_loss(
        w.start, w.stop,
        /*p_good_to_bad=*/0.01 + 0.05 * I,
        /*p_bad_to_good=*/0.25,
        /*loss_bad=*/0.5 + 0.5 * I));
  }
  if (cfg.corruption) {
    const Window w = draw_window(rng, now, L);
    plan.rules.push_back(
        proto::FaultRule::corrupt(w.start, w.stop, 0.03 * I));
  }
  if (cfg.duplicates) {
    const Window w = draw_window(rng, now, L);
    plan.rules.push_back(
        proto::FaultRule::duplicate(w.start, w.stop, 0.08 * I));
  }
  if (cfg.delay_spikes) {
    // 0.4 s spikes versus the client's 0.25 s timeout: a spiked reply
    // races its own retransmission, which is exactly the reordering the
    // correlation-id machinery must absorb.
    const Window w = draw_window(rng, now, L);
    plan.rules.push_back(
        proto::FaultRule::delay_spike(w.start, w.stop, 0.04 * I, 0.4));
  }
  if (cfg.partitions && (epoch % 2 == 1)) {
    // A random ~third of the ID space splits off, healing by 70% of the
    // epoch so cross-partition retries can still resolve inside it.
    std::vector<std::uint32_t> group;
    for (std::uint32_t p = 0; p < util::space_size(cfg.m); ++p) {
      if (rng.bernoulli(1.0 / 3.0)) group.push_back(p);
    }
    if (!group.empty() && group.size() < util::space_size(cfg.m)) {
      const double start = now + (0.10 + 0.20 * rng.uniform01()) * L;
      const double stop = now + 0.70 * L;
      plan.rules.push_back(
          proto::FaultRule::partition(start, stop, std::move(group)));
    }
  }
  return plan;
}

}  // namespace lesslog::chaos
