// Figure 6 — "An evenly-distributed load on LessLog" with dead nodes.
//
// Same sweep as Figure 5, LessLog only, with 10%, 20%, and 30% of the 1024
// ID slots dead (the advanced system model: incomplete binomial lookup
// trees, stand-in holders, spliced children lists).
//
// Paper claims checked: the three configurations create a similar number
// of replicas, with the 30%-dead system drifting higher at high rates
// ("creates more replicas when the number of requests increases due to
// the incomplete lookup tree").
#include "bench_common.hpp"

#include "lesslog/baseline/policy.hpp"

int main(int argc, char** argv) {
  using namespace lesslog;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::vector<double> rates = bench::paper_rates(args.quick);
  sim::ExperimentConfig base = bench::paper_config();
  base.workload = sim::WorkloadKind::kUniform;
  args.apply(base);
  bench::print_header("Figure 6: LessLog under dead nodes, even distribution",
                      base, args);

  util::ThreadPool pool(static_cast<unsigned>(args.threads));
  std::vector<bench::SolveRow> rows;
  const auto t0 = std::chrono::steady_clock::now();
  sim::FigureData fig("Figure 6 (replicas vs. incoming requests)",
                      "requests/s", rates);
  for (const double dead : {0.1, 0.2, 0.3}) {
    sim::ExperimentConfig cfg = base;
    cfg.dead_fraction = dead;
    const std::string label =
        std::to_string(static_cast<int>(dead * 100)) + "% dead";
    fig.add_series(label, bench::sweep_series_timed(
                              pool, rates, cfg, baseline::lesslog_policy(),
                              args.seeds, "fig6_even_dead",
                              "lesslog/" + label, rows));
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  bench::emit(fig, args);
  if (args.json.has_value()) bench::write_json(*args.json, args, rows, wall_ms);

  // Similarity: max/min ratio stays moderate at every rate.
  bool similar = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    double lo = 1e18;
    double hi = 0.0;
    for (std::size_t s = 0; s < fig.series_count(); ++s) {
      lo = std::min(lo, fig.series(s).values[i]);
      hi = std::max(hi, fig.series(s).values[i]);
    }
    similar = similar && hi <= lo * 1.6 + 8.0;
  }
  bench::check(similar,
               "10/20/30% dead create a similar number of replicas");
  bench::check(fig.roughly_increasing("30% dead", 3.0),
               "replica demand grows with rate despite dead nodes");
  bench::check(fig.find("30% dead")->values.back() + 2.0 >=
                   fig.find("10% dead")->values.back(),
               "30% dead drifts highest at the top rate");
  return 0;
}
