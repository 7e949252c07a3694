// Ablation A12 — chaos soak: deterministic fault injection with the
// swarm invariant auditor.
//
// Sweeps fault intensity over the chaos driver (burst loss, partitions,
// corruption, duplication, delay spikes, crash -> restart, churn) and
// reports audit violations, workload fault fraction, injected-fault
// volume, and repair traffic per intensity. The headline claim: every
// cell audits clean — the protocol absorbs the whole schedule.
//
// Cells are independent Driver runs, so the intensity x seed grid runs
// on the shared thread pool (--threads N); results are gathered in cell
// order, keeping stdout byte-identical for every thread count.
//
// --smoke is the ctest gate: a clean run must audit clean, a run with
// deliberately broken crash recovery must NOT, and the broken run must
// replay bit-identically from its JSON artifact alone.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"

#include "lesslog/chaos/driver.hpp"
#include "lesslog/chaos/replay.hpp"
#include "lesslog/util/stats.hpp"

namespace {

using namespace lesslog;

chaos::ChaosConfig base_config(bool quick, double intensity,
                               std::uint64_t seed, std::size_t shards) {
  chaos::ChaosConfig cfg;
  cfg.m = 6;
  cfg.b = 2;
  cfg.nodes = 40;
  cfg.seed = seed;
  cfg.epochs = quick ? 3 : 5;
  cfg.epoch_length = quick ? 20.0 : 30.0;
  cfg.fault_intensity = intensity;
  cfg.files = quick ? 32 : 48;
  cfg.get_rate = quick ? 15.0 : 20.0;
  cfg.shards = shards;
  return cfg;
}

struct Cell {
  double violations = 0.0;
  double fault_pct = 0.0;     ///< workload GETs that came back ok=false
  double unterminated = 0.0;  ///< issued - completed (must be 0)
  double injected = 0.0;      ///< total injected faults, all kinds
  double repair = 0.0;        ///< kFilePush repair transfers
  double msgs = 0.0;
  double p99_ms = 0.0;   ///< GET completion tail from client.get_latency
  double p999_ms = 0.0;  ///< (octave-resolution histogram)
};

/// Tail percentile (ms) of the run's client.get_latency histogram —
/// octave resolution, but the same obs cells a deployment would scrape.
double hist_pct_ms(const obs::Snapshot& snap, double pct) {
  const obs::LatencyHistogram* h = snap.histogram("client.get_latency");
  return h != nullptr ? 1000.0 * h->percentile(pct) : 0.0;
}

Cell run_cell(bool quick, double intensity, std::uint64_t seed,
              std::size_t shards) {
  chaos::Driver driver(base_config(quick, intensity, seed, shards));
  const chaos::Report r = driver.run();
  const obs::Snapshot snap = driver.swarm().metrics_snapshot(r.sim_time);
  Cell cell;
  cell.p99_ms = hist_pct_ms(snap, 99.0);
  cell.p999_ms = hist_pct_ms(snap, 99.9);
  cell.violations = static_cast<double>(r.violations.size());
  cell.fault_pct =
      r.workload_issued > 0
          ? 100.0 * static_cast<double>(r.workload_faults) /
                static_cast<double>(r.workload_issued)
          : 0.0;
  cell.unterminated =
      static_cast<double>(r.workload_issued - r.workload_completed);
  cell.injected = static_cast<double>(
      r.injected.burst_dropped + r.injected.partition_dropped +
      r.injected.duplicated + r.injected.corrupted +
      r.injected.delay_spikes);
  cell.repair = static_cast<double>(r.repair_pushes);
  cell.msgs = static_cast<double>(r.messages_sent);
  return cell;
}

/// The sharded ctest gate (--smoke --shards N): the full chaos schedule
/// against a ShardedSwarm must audit clean, replay bit-identically from
/// its artifact (which carries the shard count), and reproduce the same
/// outcome on an independent second run — the parallel engine is a pure
/// function of the config.
int run_sharded_smoke(const bench::BenchArgs& args) {
  chaos::ChaosConfig cfg = base_config(
      /*quick=*/true, 0.6, 1, static_cast<std::size_t>(args.shards));
  chaos::Driver driver(cfg);
  const chaos::Report first = driver.run();
  const bool clean_ok = first.clean() && first.workload_issued > 0 &&
                        first.workload_issued == first.workload_completed;

  const chaos::Report second = chaos::Driver(cfg).run();
  const bool repeat_ok = chaos::same_outcome(first, second);

  const std::string artifact = chaos::artifact_to_json(first);
  const chaos::Report replayed = chaos::replay(artifact);
  const bool replay_ok = chaos::same_outcome(first, replayed) &&
                         artifact == chaos::artifact_to_json(replayed);

  const bool ok = clean_ok && repeat_ok && replay_ok;
  std::cout << "sharded chaos smoke (S=" << args.shards
            << "): clean_run=" << (clean_ok ? "clean" : "DIRTY")
            << " rerun=" << (repeat_ok ? "bit-identical" : "DIVERGED")
            << " replay=" << (replay_ok ? "bit-identical" : "DIVERGED")
            << " -> " << (ok ? "PASS" : "FAIL") << "\n";
  const int metrics_rc = bench::emit_metrics(
      args, "abl_chaos", cfg.seed,
      driver.swarm().metrics_snapshot(first.sim_time));
  return (ok && metrics_rc == 0) ? 0 : 1;
}

/// The reliability-smoke config: the full adaptive layer on (RTT-estimated
/// timeouts, hedged GETs, suspicion routing, peer-side shedding) over a
/// crash/churn-only schedule. Wire faults stay off so the layer's own
/// retransmit/hedge/shed decisions are the only source of extra traffic,
/// and swim mode (suspicion routing needs its detector) staggers links
/// so the same schedule replays identically at any shard count.
chaos::ChaosConfig reliability_config(std::uint64_t seed,
                                      std::size_t shards) {
  chaos::ChaosConfig cfg = base_config(/*quick=*/true, 0.6, seed, shards);
  cfg.bursts = false;
  cfg.partitions = false;
  cfg.corruption = false;
  cfg.duplicates = false;
  cfg.delay_spikes = false;
  cfg.swim = true;
  cfg.adaptive_timeouts = true;
  cfg.hedge_percentile = 0.9;
  cfg.suspicion_routing = true;
  cfg.busy_budget = 4;
  cfg.busy_refill = 100.0;
  return cfg;
}

/// The reliability ctest gate (--reliability-smoke): one chaos intensity
/// point with hedging and shedding enabled must (a) audit clean with the
/// hedge/ledger reconciliation checks live, (b) actually exercise the
/// layer (RTT samples taken, hedges launched, sheds issued and received),
/// (c) rerun bit-identically including the whole reliability ledger,
/// (d) complete the workload with the exact same issued/ok/faults ledger
/// at S = 1 and S = 4 — the timing-driven cells (RTT samples, hedges,
/// sheds) legitimately differ across shard counts because each shard
/// seeds its own delivery-jitter stream, but every per-run identity
/// still holds on both sides and request OUTCOMES must not depend on
/// the shard layout — and (e) replay from its JSON artifact alone (the
/// artifact round-trips the reliability knobs).
int run_reliability_smoke(const bench::BenchArgs& args) {
  const chaos::ChaosConfig cfg = reliability_config(/*seed=*/1, /*shards=*/1);
  const chaos::Report first = chaos::Driver(cfg).run();
  const proto::ReliabilityLedger& led = first.reliability;
  const bool clean_ok = first.clean() && first.workload_issued > 0 &&
                        first.workload_issued == first.workload_completed;
  const bool engaged_ok = led.rtt_samples > 0 && led.hedges_launched > 0 &&
                          led.busy_shed > 0 && led.busy_received > 0;

  const chaos::Report second = chaos::Driver(cfg).run();
  const bool repeat_ok = chaos::same_outcome(first, second);

  const chaos::Report sharded =
      chaos::Driver(reliability_config(/*seed=*/1, /*shards=*/4)).run();
  const proto::ReliabilityLedger& sled = sharded.reliability;
  const bool shard_ok = sharded.clean() && sled.issued == led.issued &&
                        sled.ok == led.ok && sled.faults == led.faults &&
                        sled.busy_shed > 0 && sled.hedges_launched > 0;

  const std::string artifact = chaos::artifact_to_json(first);
  const chaos::Report replayed = chaos::replay(artifact);
  const bool replay_ok = chaos::same_outcome(first, replayed) &&
                         artifact == chaos::artifact_to_json(replayed);

  const bool ok =
      clean_ok && engaged_ok && repeat_ok && shard_ok && replay_ok;
  std::cout << "reliability smoke: clean_run="
            << (clean_ok ? "clean" : "DIRTY") << " layer="
            << (engaged_ok ? "engaged" : "IDLE") << " (rtt_samples="
            << led.rtt_samples << " hedges=" << led.hedges_launched
            << " shed=" << led.busy_shed << ")"
            << " rerun=" << (repeat_ok ? "bit-identical" : "DIVERGED")
            << " shards=" << (shard_ok ? "ledger-equal" : "DIVERGED")
            << " replay=" << (replay_ok ? "bit-identical" : "DIVERGED")
            << " -> " << (ok ? "PASS" : "FAIL") << "\n";
  for (const chaos::Violation& v : first.violations) {
    std::cout << "  violation (S=1, epoch " << v.epoch << "): " << v.check
              << " — " << v.detail << "\n";
  }
  for (const chaos::Violation& v : sharded.violations) {
    std::cout << "  violation (S=4, epoch " << v.epoch << "): " << v.check
              << " — " << v.detail << "\n";
  }
  (void)args;
  return ok ? 0 : 1;
}

/// --head-to-head: the A12 top-intensity cell, fixed-timeout baseline
/// versus the adaptive reliability layer, same seed and schedule. Prints
/// the EXPERIMENTS.md comparison row: exact (sorted-sample) GET latency
/// percentiles, fault rate, message volume, and audit cleanliness. The
/// claim under test: the layer cuts the p99 completion tail without
/// dirtying a single audit.
int run_head_to_head(const bench::BenchArgs& args) {
  struct Side {
    const char* name;
    bool adaptive;
    double p50_ms, p99_ms, p999_ms, fault_pct, msgs;
    std::size_t violations;
    std::int64_t hedges, rtt_samples;
  };
  Side sides[2] = {{"fixed", false, 0, 0, 0, 0, 0, 0, 0, 0},
                   {"adaptive", true, 0, 0, 0, 0, 0, 0, 0, 0}};
  for (Side& side : sides) {
    chaos::ChaosConfig cfg =
        base_config(args.quick, /*intensity=*/1.0, /*seed=*/1, /*shards=*/1);
    if (side.adaptive) {
      cfg.adaptive_timeouts = true;
      cfg.hedge_percentile = 0.9;
    }
    chaos::Driver driver(cfg);
    const chaos::Report r = driver.run();
    std::vector<double> lat = driver.swarm().all_latencies();
    std::sort(lat.begin(), lat.end());
    side.p50_ms = 1000.0 * util::percentile_sorted(lat, 50.0);
    side.p99_ms = 1000.0 * util::percentile_sorted(lat, 99.0);
    side.p999_ms = 1000.0 * util::percentile_sorted(lat, 99.9);
    side.fault_pct =
        r.workload_issued > 0
            ? 100.0 * static_cast<double>(r.workload_faults) /
                  static_cast<double>(r.workload_issued)
            : 0.0;
    side.msgs = static_cast<double>(r.messages_sent);
    side.violations = r.violations.size();
    side.hedges = r.reliability.hedges_launched;
    side.rtt_samples = r.reliability.rtt_samples;
  }
  std::cout << "== A12 head-to-head: fixed timeout vs adaptive reliability "
               "layer (intensity 1.0, seed 1) ==\n";
  for (const Side& side : sides) {
    std::cout << side.name << ": p50=" << side.p50_ms
              << "ms p99=" << side.p99_ms << "ms p999=" << side.p999_ms
              << "ms faults=" << side.fault_pct
              << "% msgs=" << side.msgs << " hedges=" << side.hedges
              << " rtt_samples=" << side.rtt_samples << " audit="
              << (side.violations == 0 ? "clean" : "DIRTY") << "\n";
  }
  const bool ok = sides[0].violations == 0 && sides[1].violations == 0 &&
                  sides[1].p99_ms < sides[0].p99_ms;
  std::cout << "adaptive p99 " << (ok ? "improves" : "DOES NOT improve")
            << " on fixed with both audits clean -> "
            << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

/// The ctest gate: healthy chaos audits clean, broken recovery is
/// caught, and the broken run replays bit-identically from its artifact.
int run_smoke(const bench::BenchArgs& args) {
  if (args.shards > 1) return run_sharded_smoke(args);
  chaos::ChaosConfig clean_cfg =
      base_config(/*quick=*/true, 0.6, 1, /*shards=*/1);
  chaos::Driver clean_driver(clean_cfg);
  const chaos::Report clean = clean_driver.run();
  const bool clean_ok = clean.clean() && clean.workload_issued > 0 &&
                        clean.workload_issued == clean.workload_completed;

  chaos::ChaosConfig broken_cfg =
      base_config(/*quick=*/true, 0.6, 2, /*shards=*/1);
  broken_cfg.silent_crashes = true;
  const chaos::Report broken = chaos::Driver(broken_cfg).run();
  const bool caught = !broken.clean();

  const std::string artifact = chaos::artifact_to_json(broken);
  const chaos::Report replayed = chaos::replay(artifact);
  const bool replay_ok =
      chaos::same_outcome(broken, replayed) &&
      artifact == chaos::artifact_to_json(replayed);

  const bool ok = clean_ok && caught && replay_ok;
  std::cout << "chaos smoke: clean_run=" << (clean_ok ? "clean" : "DIRTY")
            << " broken_run="
            << (caught ? "caught(" + std::to_string(broken.violations.size()) +
                             " violations)"
                       : "MISSED")
            << " replay=" << (replay_ok ? "bit-identical" : "DIVERGED")
            << " -> " << (ok ? "PASS" : "FAIL") << "\n";
  const int metrics_rc = bench::emit_metrics(
      args, "abl_chaos", clean_cfg.seed,
      clean_driver.swarm().metrics_snapshot(clean.sim_time));
  return (ok && metrics_rc == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lesslog;
  const auto t0 = std::chrono::steady_clock::now();
  // Mode flags this bench owns; scanned off before the shared parser,
  // which rejects flags it does not know.
  bool reliability_smoke = false;
  bool head_to_head = false;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reliability-smoke") {
      reliability_smoke = true;
    } else if (arg == "--head-to-head") {
      head_to_head = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::BenchArgs args =
      bench::BenchArgs::parse(static_cast<int>(rest.size()), rest.data());
  if (reliability_smoke) return run_reliability_smoke(args);
  if (head_to_head) return run_head_to_head(args);
  if (args.smoke) return run_smoke(args);
  const std::vector<double> intensities =
      args.quick ? std::vector<double>{0.0, 0.5, 1.0}
                 : std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0};

  std::cout << "== Ablation A12: chaos soak (fault injection + invariant "
               "audit) ==\n"
            << "m=6, b=2, 40 nodes, shards=" << args.shards
            << "; per epoch: burst loss, partitions, "
               "corruption,\nduplication, delay spikes, crash->restart, "
               "churn; x = fault intensity\n\n";

  // Flatten intensity x seed into one independent cell list.
  struct Key {
    double intensity;
    int seed;
  };
  std::vector<Key> keys;
  for (const double intensity : intensities) {
    for (int seed = 1; seed <= args.seeds; ++seed) {
      keys.push_back({intensity, seed});
    }
  }
  const std::vector<Cell> cells = bench::run_cells_parallel(
      args.threads, keys.size(), [&](std::size_t i) {
        const Key& k = keys[i];
        return run_cell(args.quick, k.intensity,
                        static_cast<std::uint64_t>(k.seed),
                        static_cast<std::size_t>(args.shards));
      });

  sim::FigureData fig("A12 chaos soak", "intensity", intensities);
  std::vector<bench::WireRow> rows;
  std::vector<double> violations;
  std::vector<double> fault_pct;
  std::vector<double> injected;
  std::vector<double> repair;
  std::size_t next = 0;
  double unterminated_total = 0.0;
  for (const double intensity : intensities) {
    Cell sum;
    for (int seed = 1; seed <= args.seeds; ++seed) {
      const Cell& cell = cells[next++];
      sum.violations += cell.violations;
      sum.fault_pct += cell.fault_pct;
      sum.unterminated += cell.unterminated;
      sum.injected += cell.injected;
      sum.repair += cell.repair;
      sum.msgs += cell.msgs;
      sum.p99_ms += cell.p99_ms;
      sum.p999_ms += cell.p999_ms;
    }
    unterminated_total += sum.unterminated;
    violations.push_back(sum.violations);  // total, not mean: must be 0
    fault_pct.push_back(sum.fault_pct / args.seeds);
    injected.push_back(sum.injected / args.seeds);
    repair.push_back(sum.repair / args.seeds);
    rows.push_back(bench::WireRow{
        "abl_chaos",
        "intensity=" + std::to_string(intensity),
        {{"violations", violations.back()},
         {"workload_fault_pct", fault_pct.back()},
         {"injected_faults", injected.back()},
         {"repair_pushes", repair.back()},
         {"messages", sum.msgs / args.seeds},
         {"p99_ms", sum.p99_ms / args.seeds},
         {"p999_ms", sum.p999_ms / args.seeds}}});
  }
  fig.add_series("audit violations", std::move(violations));
  fig.add_series("workload faults %", std::move(fault_pct));
  fig.add_series("injected faults", std::move(injected));
  fig.add_series("repair pushes", std::move(repair));
  bench::emit(fig, args);

  bool all_clean = true;
  for (const double v : fig.find("audit violations")->values) {
    all_clean = all_clean && v == 0.0;
  }
  bench::check(all_clean,
               "every intensity audits clean (all invariants hold)");
  bench::check(unterminated_total == 0.0,
               "every workload GET terminated (no stuck requests)");
  bench::check(fig.find("injected faults")->values.front() == 0.0,
               "intensity 0 injects nothing (clean fast path)");
  bench::check(fig.find("injected faults")->values.back() > 0.0,
               "top intensity actually injected faults");

  if (args.json.has_value()) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    bench::write_wire_json(*args.json, args, rows, wall_ms, /*seed=*/1);
  }
  return 0;
}
