// Figure 8 — "A locality model on LessLog" with dead nodes.
//
// The locality workload of Figure 7 with 10/20/30% dead ID slots, LessLog
// only. Cells where a hot node's own client demand exceeds the 100 req/s
// capacity cannot be balanced by ANY placement (the node must serve its
// local clients); the harness reports those cells' replica counts and
// flags them — at 30% dead this begins around 18k req/s, an artifact the
// paper's text acknowledges as the 30%-dead curve pulling away.
#include "bench_common.hpp"

#include "lesslog/baseline/policy.hpp"

int main(int argc, char** argv) {
  using namespace lesslog;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::vector<double> rates = bench::paper_rates(args.quick);
  sim::ExperimentConfig base = bench::paper_config();
  base.workload = sim::WorkloadKind::kLocality;
  args.apply(base);
  bench::print_header("Figure 8: LessLog under dead nodes, locality model",
                      base, args);

  util::ThreadPool pool(static_cast<unsigned>(args.threads));
  sim::FigureData fig("Figure 8 (replicas vs. incoming requests)",
                      "requests/s", rates);
  std::vector<bench::SolveRow> rows;
  const auto t0 = std::chrono::steady_clock::now();
  int irreducible = 0;
  std::mutex mu;
  for (const double dead : {0.1, 0.2, 0.3}) {
    sim::ExperimentConfig cfg = base;
    cfg.dead_fraction = dead;
    const std::string label =
        std::to_string(static_cast<int>(dead * 100)) + "% dead";
    std::vector<double> ys(rates.size(), 0.0);
    std::vector<bench::SolveRow> local(rates.size());
    util::parallel_for(pool, rates.size(), [&](std::size_t i) {
      sim::ExperimentConfig cell = cfg;
      cell.total_rate = rates[i];
      double total = 0.0;
      std::int64_t solves = 0;
      int cell_irreducible = 0;
      const auto cell_t0 = std::chrono::steady_clock::now();
      for (int seed = 1; seed <= args.seeds; ++seed) {
        cell.seed = static_cast<std::uint64_t>(seed);
        const sim::ExperimentResult r = sim::run_replication_experiment(
            cell, baseline::lesslog_policy());
        total += r.replicas_created;
        solves += r.replicas_created + 1;
        if (r.irreducible_overload) ++cell_irreducible;
      }
      const auto cell_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - cell_t0)
              .count();
      ys[i] = total / args.seeds;
      local[i] = bench::SolveRow{
          "fig8_locality_dead", cell.m, rates[i], "lesslog/" + label,
          solves > 0
              ? static_cast<double>(cell_ns) / static_cast<double>(solves)
              : 0.0,
          ys[i]};
      std::lock_guard lock(mu);
      irreducible += cell_irreducible;
    });
    fig.add_series(label, std::move(ys));
    rows.insert(rows.end(), local.begin(), local.end());
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  bench::emit(fig, args);
  if (args.json.has_value()) bench::write_json(*args.json, args, rows, wall_ms);
  std::cout << "cells ending in irreducible local overload: " << irreducible
            << " (hot node's own clients exceed capacity; no placement can "
               "shed that)\n\n";

  bool similar = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    double lo = 1e18;
    double hi = 0.0;
    for (std::size_t s = 0; s < fig.series_count(); ++s) {
      lo = std::min(lo, fig.series(s).values[i]);
      hi = std::max(hi, fig.series(s).values[i]);
    }
    similar = similar && hi <= lo * 1.7 + 10.0;
  }
  bench::check(similar,
               "10/20/30% dead create a similar number of replicas");
  bench::check(fig.roughly_increasing("10% dead", 3.0),
               "replica demand grows with rate");
  return 0;
}
