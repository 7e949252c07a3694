// Ablation A13 — SWIM membership: detection latency and false-suspicion
// curves for the gossip failure detector, swept over fault intensity
// under two chaos plans (churn: crash/restart/depart/join; partition:
// crash/restart under windowed network splits).
//
// Every cell uses the membership-only configuration: no catalog
// (files = 0), no GET workload (get_rate = 0), zero per-hop latency
// jitter. The driver substitutes a deterministic per-link stagger for
// the jitter, so delivery order is a pure function of the config and
// every plan — churn, partition, AND lossy — reproduces bit-identically
// at any shard count: the curves are exact, not sampled. (Lossy joined
// the club when the Gilbert–Elliott chains moved to per-link-per-seed
// RNG streams; each link's loss pattern is now a pure function of its
// own datagram count, which shard layout never permutes.)
//
// --smoke is the membership_smoke ctest gate:
//   * a churn+partition cell must audit clean, converge the detector in
//     every epoch, and actually detect crashes (nonzero latency samples);
//   * the same cell rerun, and rerun at S = 4, must reproduce the whole
//     detector ledger bit-identically (same_outcome covers the SWIM
//     tallies and every latency sample);
//   * a lossy cell must reproduce bit-identically across S ∈ {1, 2, 4}
//     — the per-link chain scoping pin;
//   * the oracle path (swim = false, same geometry) must stay clean and
//     replay bit-identically from its JSON artifact — the pin that the
//     LivenessView seam left ground-truth liveness untouched.
#include <algorithm>
#include <chrono>
#include <numeric>

#include "bench_common.hpp"

#include "lesslog/chaos/driver.hpp"
#include "lesslog/chaos/replay.hpp"

namespace {

using namespace lesslog;

struct Plan {
  const char* name;
  bool churn;
  bool partitions;
  bool bursts;
};

// churn keeps the wire clean (membership motion only — the flat-curve
// control: op counts do not scale with intensity). partition gates on
// intensity but its geometry does not scale with it (a step, not a
// slope). bursts is the class whose loss probabilities genuinely scale
// with intensity, so "lossy" is the plan where the false-suspicion
// curve actually climbs.
constexpr Plan kPlans[] = {
    {"churn", true, false, false},
    {"partition", false, true, false},
    {"lossy", false, false, true},
};

chaos::ChaosConfig membership_config(bool quick, const Plan& plan,
                                     double intensity, std::uint64_t seed,
                                     std::size_t shards) {
  chaos::ChaosConfig cfg;
  cfg.m = 6;
  cfg.b = 2;
  cfg.nodes = 40;
  cfg.seed = seed;
  cfg.epochs = quick ? 3 : 4;
  cfg.epoch_length = 30.0;
  cfg.fault_intensity = intensity;
  // Membership-only: no catalog, no workload, no latency jitter. With
  // every shard-seeded randomness consumer gone, the cell is the same
  // trajectory at any shard count.
  cfg.files = 0;
  cfg.get_rate = 0.0;
  cfg.net_jitter = 0.0;
  cfg.swim = true;
  cfg.shards = shards;
  // Crashes always fire (the detection-latency signal); every other
  // fault class is off except the plan's own.
  cfg.bursts = plan.bursts;
  cfg.corruption = false;
  cfg.duplicates = false;
  cfg.delay_spikes = false;
  cfg.churn = plan.churn;
  cfg.partitions = plan.partitions;
  return cfg;
}

struct Cell {
  double detect_mean = 0.0;   ///< mean crash -> first true confirm (s)
  double detect_max = 0.0;
  double detections = 0.0;    ///< crashes whose detection completed
  double suspects = 0.0;
  double false_suspects = 0.0;     ///< suspicions raised on live nodes
  double false_suspect_pct = 0.0;
  double false_confirms = 0.0;
  double conv_rounds = 0.0;   ///< mean extra periods to re-converge
  double conv_failures = 0.0; ///< epochs that hit the round cap
  double violations = 0.0;
};

Cell run_cell(bool quick, const Plan& plan, double intensity,
              std::uint64_t seed, std::size_t shards) {
  chaos::Driver driver(
      membership_config(quick, plan, intensity, seed, shards));
  const chaos::Report r = driver.run();
  Cell cell;
  cell.violations = static_cast<double>(r.violations.size());
  if (!r.detection_latency.empty()) {
    cell.detections = static_cast<double>(r.detection_latency.size());
    cell.detect_mean = std::accumulate(r.detection_latency.begin(),
                                       r.detection_latency.end(), 0.0) /
                       cell.detections;
    cell.detect_max = *std::max_element(r.detection_latency.begin(),
                                        r.detection_latency.end());
  }
  cell.suspects = static_cast<double>(r.swim.suspects);
  cell.false_suspects = static_cast<double>(r.swim.false_suspects);
  cell.false_suspect_pct =
      r.swim.suspects > 0
          ? 100.0 * static_cast<double>(r.swim.false_suspects) /
                static_cast<double>(r.swim.suspects)
          : 0.0;
  cell.false_confirms = static_cast<double>(r.swim.false_confirms);
  for (const chaos::SwimEpochStats& e : r.swim_epochs) {
    cell.conv_rounds += static_cast<double>(e.rounds);
    if (!e.converged) cell.conv_failures += 1.0;
  }
  if (!r.swim_epochs.empty()) {
    cell.conv_rounds /= static_cast<double>(r.swim_epochs.size());
  }
  return cell;
}

/// The membership_smoke ctest gate (see file header).
int run_smoke(const bench::BenchArgs& args) {
  const Plan both{"churn+partition", true, true, false};
  chaos::ChaosConfig cfg =
      membership_config(/*quick=*/true, both, 0.6, 1, /*shards=*/1);
  chaos::Driver driver(cfg);
  const chaos::Report first = driver.run();
  bool converged = !first.swim_epochs.empty();
  for (const chaos::SwimEpochStats& e : first.swim_epochs) {
    converged = converged && e.converged;
  }
  const bool detect_ok =
      first.clean() && converged && !first.detection_latency.empty();

  // Determinism: the whole detector ledger (tallies, every latency
  // sample) must reproduce across reruns and across shard counts.
  const bool rerun_ok = chaos::same_outcome(first, chaos::Driver(cfg).run());
  chaos::ChaosConfig cfg4 = cfg;
  cfg4.shards = 4;
  const bool shard_ok =
      chaos::same_outcome(first, chaos::Driver(cfg4).run());

  // Lossy pin: with the Gilbert–Elliott chains scoped per link per seed,
  // the burst-loss plan must be bit-identical across S ∈ {1, 2, 4} too.
  const Plan lossy{"lossy", false, false, true};
  const chaos::Report lossy1 = chaos::Driver(
      membership_config(/*quick=*/true, lossy, 0.8, 1, /*shards=*/1)).run();
  const chaos::Report lossy2 = chaos::Driver(
      membership_config(/*quick=*/true, lossy, 0.8, 1, /*shards=*/2)).run();
  const chaos::Report lossy4 = chaos::Driver(
      membership_config(/*quick=*/true, lossy, 0.8, 1, /*shards=*/4)).run();
  const bool lossy_ok = lossy1.clean() &&
                        chaos::same_outcome(lossy1, lossy2) &&
                        chaos::same_outcome(lossy1, lossy4);

  // Oracle pin: same geometry with the detector off must audit clean and
  // replay bit-identically from its artifact — ground-truth liveness
  // behind the LivenessView seam is unchanged.
  chaos::ChaosConfig oracle_cfg = cfg;
  oracle_cfg.swim = false;
  oracle_cfg.files = 32;
  oracle_cfg.get_rate = 15.0;
  oracle_cfg.net_jitter = 0.005;
  const chaos::Report oracle = chaos::Driver(oracle_cfg).run();
  const std::string artifact = chaos::artifact_to_json(oracle);
  const chaos::Report replayed = chaos::replay(artifact);
  const bool oracle_ok = oracle.clean() &&
                         chaos::same_outcome(oracle, replayed) &&
                         artifact == chaos::artifact_to_json(replayed);

  const bool ok = detect_ok && rerun_ok && shard_ok && lossy_ok && oracle_ok;
  std::cout << "membership smoke: swim="
            << (detect_ok ? "converged(" +
                                std::to_string(
                                    first.detection_latency.size()) +
                                " detections)"
                          : "FAILED")
            << " rerun=" << (rerun_ok ? "bit-identical" : "DIVERGED")
            << " shards=" << (shard_ok ? "bit-identical" : "DIVERGED")
            << " lossy=" << (lossy_ok ? "bit-identical" : "DIVERGED")
            << " oracle=" << (oracle_ok ? "clean+replayed" : "BROKEN")
            << " -> " << (ok ? "PASS" : "FAIL") << "\n";
  const int metrics_rc = bench::emit_metrics(
      args, "abl_membership", cfg.seed,
      driver.swarm().metrics_snapshot(first.sim_time));
  return (ok && metrics_rc == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lesslog;
  const auto t0 = std::chrono::steady_clock::now();
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  if (args.smoke) return run_smoke(args);
  const std::vector<double> intensities =
      args.quick ? std::vector<double>{0.0, 0.5, 1.0}
                 : std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0};

  std::cout << "== Ablation A13: SWIM membership (detection latency + "
               "false suspicion) ==\n"
            << "m=6, b=2, 40 nodes, shards=" << args.shards
            << ", membership-only cells (files=0, get_rate=0, jitter=0);\n"
            << "plans: churn (crash/restart/depart/join), partition "
               "(crash/restart + splits),\nlossy (crash/restart + "
               "intensity-scaled burst loss); x = fault intensity\n\n";

  struct Key {
    const Plan* plan;
    double intensity;
    int seed;
  };
  std::vector<Key> keys;
  for (const Plan& plan : kPlans) {
    for (const double intensity : intensities) {
      for (int seed = 1; seed <= args.seeds; ++seed) {
        keys.push_back({&plan, intensity, seed});
      }
    }
  }
  const std::vector<Cell> cells = bench::run_cells_parallel(
      args.threads, keys.size(), [&](std::size_t i) {
        const Key& k = keys[i];
        return run_cell(args.quick, *k.plan, k.intensity,
                        static_cast<std::uint64_t>(k.seed),
                        static_cast<std::size_t>(args.shards));
      });

  sim::FigureData fig("A13 SWIM membership", "intensity", intensities);
  std::vector<bench::WireRow> rows;
  std::size_t next = 0;
  double violations_total = 0.0;
  double conv_failures_total = 0.0;
  double zero_intensity_false = 0.0;
  double top_intensity_detections = 0.0;
  for (const Plan& plan : kPlans) {
    std::vector<double> detect_mean;
    std::vector<double> false_pct;
    std::vector<double> conv_rounds;
    for (const double intensity : intensities) {
      Cell sum;
      for (int seed = 1; seed <= args.seeds; ++seed) {
        const Cell& cell = cells[next++];
        sum.detect_mean += cell.detect_mean;
        sum.detect_max = std::max(sum.detect_max, cell.detect_max);
        sum.detections += cell.detections;
        sum.suspects += cell.suspects;
        sum.false_suspects += cell.false_suspects;
        sum.false_suspect_pct += cell.false_suspect_pct;
        sum.false_confirms += cell.false_confirms;
        sum.conv_rounds += cell.conv_rounds;
        sum.conv_failures += cell.conv_failures;
        sum.violations += cell.violations;
      }
      violations_total += sum.violations;
      conv_failures_total += sum.conv_failures;
      if (intensity == 0.0) zero_intensity_false += sum.false_suspects;
      if (intensity == intensities.back()) {
        top_intensity_detections += sum.detections;
      }
      detect_mean.push_back(sum.detect_mean / args.seeds);
      false_pct.push_back(sum.false_suspect_pct / args.seeds);
      conv_rounds.push_back(sum.conv_rounds / args.seeds);
      rows.push_back(bench::WireRow{
          "abl_membership",
          std::string("plan=") + plan.name +
              " intensity=" + std::to_string(intensity),
          {{"detect_mean_s", detect_mean.back()},
           {"detect_max_s", sum.detect_max},
           {"detections", sum.detections},
           {"suspects", sum.suspects},
           {"false_suspects", sum.false_suspects},
           {"false_suspect_pct", false_pct.back()},
           {"false_confirms", sum.false_confirms},
           {"conv_rounds_mean", conv_rounds.back()},
           {"conv_failures", sum.conv_failures},
           {"violations", sum.violations}}});
    }
    fig.add_series(std::string(plan.name) + " detect mean (s)",
                   std::move(detect_mean));
    fig.add_series(std::string(plan.name) + " false suspect %",
                   std::move(false_pct));
    fig.add_series(std::string(plan.name) + " conv rounds",
                   std::move(conv_rounds));
  }
  bench::emit(fig, args);

  bench::check(violations_total == 0.0,
               "every cell audits clean (detector never broke the swarm)");
  bench::check(conv_failures_total == 0.0,
               "every epoch re-converged within the round cap");
  bench::check(zero_intensity_false == 0.0,
               "intensity 0 raises no false suspicion (membership ops "
               "still fire, but the wire is clean)");
  bench::check(top_intensity_detections > 0.0,
               "top intensity crashes are detected (latency samples exist)");

  if (args.json.has_value()) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    bench::write_wire_json(*args.json, args, rows, wall_ms, /*seed=*/1);
  }
  return 0;
}
