// Ablation A9 — methodology cross-validation.
//
// The figure benches use the deterministic fluid solver (DESIGN.md §3).
// This ablation re-runs Figure 5 cells on the wire-level swarm instead:
// 1024 real peers, Poisson request arrivals, datagram routing with
// latency, and the *autonomous* closed-loop controller (each peer sheds
// its hottest file when its own window counter exceeds capacity). If the
// fluid substitution is sound, the packet-level run must settle on a
// replica count of the same magnitude and leave no peer overloaded.
//
// Each rate is one independent cell (fluid solve + packet-level run), so
// the cells run on the shared thread pool (--threads N) and are gathered
// in rate order — stdout stays byte-identical for every thread count.
#include <chrono>

#include "bench_common.hpp"

#include "lesslog/baseline/policy.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace {

using namespace lesslog;

struct WireCell {
  int replicas = 0;
  double worst_final_window = 0.0;  // served req/s in the last window
  std::int64_t faults = 0;
  obs::Snapshot snap;  ///< the cell swarm's final metric snapshot
};

WireCell run_wire(double rate, double capacity, double duration,
                  std::uint64_t seed) {
  proto::ShardedSwarm::Config cfg;
  cfg.m = 10;
  cfg.b = 0;
  cfg.nodes = 1024;
  cfg.seed = seed;
  cfg.net.base_latency = 0.002;
  cfg.net.jitter = 0.001;
  proto::ShardedSwarm swarm(cfg);

  const core::FileId f = swarm.insert_named(0xF16'5EEDULL + seed, core::Pid{0});
  const core::Pid target = swarm.peer(core::Pid{0}).target_of(f);
  swarm.settle();

  swarm.engine(0).poisson_process(rate, duration, [&swarm, f, target] {
    const core::Pid at{
        static_cast<std::uint32_t>(swarm.engine(0).rng().bounded(1024))};
    swarm.get(f, target, at);
  });
  swarm.enable_auto_replication(capacity, /*window=*/1.0, duration);
  swarm.engine(0).run_until(duration - 1.0);

  // Final measurement window.
  for (std::uint32_t p = 0; p < 1024; ++p) {
    swarm.peer(core::Pid{p}).reset_window();
  }
  swarm.engine(0).run_until(duration);
  WireCell cell;
  cell.replicas = static_cast<int>(swarm.auto_replicas());
  for (std::uint32_t p = 0; p < 1024; ++p) {
    cell.worst_final_window =
        std::max(cell.worst_final_window,
                 static_cast<double>(swarm.peer(core::Pid{p}).served()));
  }
  swarm.settle();
  cell.faults = swarm.total_faults();
  cell.snap = swarm.metrics_snapshot(swarm.engine(0).now());
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lesslog;
  const auto t0 = std::chrono::steady_clock::now();
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::vector<double> rates =
      args.quick ? std::vector<double>{4000.0}
                 : std::vector<double>{4000.0, 12000.0, 20000.0};
  const double capacity = 100.0;
  const double duration = 30.0;

  std::cout << "== Ablation A9: fluid solver vs wire-level swarm "
               "(Figure 5 cells) ==\n"
            << "1024 peers, Poisson arrivals, 1 s control windows, "
            << duration << " s runs\n\n";

  sim::FigureData fig("A9 replicas: fluid prediction vs packet-level run",
                      "requests/s", rates);
  struct RateCell {
    double fluid = 0.0;
    WireCell wire;
  };
  const std::vector<RateCell> cells = bench::run_cells_parallel(
      args.threads, rates.size(), [&](std::size_t i) {
        RateCell out;
        sim::ExperimentConfig cfg = bench::paper_config();
        cfg.total_rate = rates[i];
        cfg.seed = 1;
        out.fluid = static_cast<double>(
            sim::run_replication_experiment(cfg, baseline::lesslog_policy())
                .replicas_created);
        out.wire = run_wire(rates[i], capacity, duration, 1);
        return out;
      });
  std::vector<double> fluid;
  std::vector<double> wire;
  std::vector<double> worst;
  std::vector<double> faults;
  std::vector<bench::WireRow> rows;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const RateCell& cell = cells[i];
    fluid.push_back(cell.fluid);
    wire.push_back(cell.wire.replicas);
    worst.push_back(cell.wire.worst_final_window);
    faults.push_back(static_cast<double>(cell.wire.faults));
    rows.push_back(bench::WireRow{
        "abl_wire_validation",
        "rate=" + std::to_string(static_cast<int>(rates[i])),
        {{"fluid_replicas", cell.fluid},
         {"wire_replicas", static_cast<double>(cell.wire.replicas)},
         {"worst_final_window", cell.wire.worst_final_window},
         {"faults", static_cast<double>(cell.wire.faults)}}});
  }
  fig.add_series("fluid replicas", std::move(fluid));
  fig.add_series("wire replicas", std::move(wire));
  fig.add_series("worst final-window req/s", std::move(worst));
  fig.add_series("faults", std::move(faults));
  bench::emit(fig, args);

  bool same_magnitude = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double f = fig.find("fluid replicas")->values[i];
    const double w = fig.find("wire replicas")->values[i];
    same_magnitude = same_magnitude && w >= f * 0.5 && w <= f * 3.0;
  }
  bench::check(same_magnitude,
               "packet-level replica counts agree with the fluid solver "
               "within a small factor");
  bool settled = true;
  for (const double w : fig.find("worst final-window req/s")->values) {
    // Poisson windows overshoot a deterministic 100; 2x covers ~6 sigma at
    // these rates.
    settled = settled && w <= capacity * 2.0;
  }
  bench::check(settled, "no peer remains overloaded once the loop settles");
  bench::check(*std::max_element(
                   fig.find("faults")->values.begin(),
                   fig.find("faults")->values.end()) == 0.0,
               "no request faults at any rate");
  if (args.json.has_value()) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    bench::write_wire_json(*args.json, args, rows, wall_ms, /*seed=*/1);
  }
  obs::Snapshot merged;
  for (const RateCell& cell : cells) merged.merge_from(cell.wire.snap);
  return bench::emit_metrics(args, "abl_wire_validation", 1, merged);
}
