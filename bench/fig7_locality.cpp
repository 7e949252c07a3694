// Figure 7 — "A locality model".
//
// Same three-method comparison as Figure 5, but 80% of the requests are
// received by a random 20% of the nodes ("a certain region of the P2P
// system accesses this file more frequently than the rest").
//
// Paper claims checked: LessLog ≪ random, LessLog ≳ log-based, growth
// with rate. Note the log-based baseline here reads *perfect* access logs
// (exact flow rates), the strongest version of that comparator.
#include "bench_common.hpp"

#include "lesslog/baseline/policy.hpp"

int main(int argc, char** argv) {
  using namespace lesslog;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::vector<double> rates = bench::paper_rates(args.quick);
  sim::ExperimentConfig base = bench::paper_config();
  base.workload = sim::WorkloadKind::kLocality;
  args.apply(base);
  bench::print_header("Figure 7: replicas to balance, locality model (80/20)",
                      base, args);

  util::ThreadPool pool(static_cast<unsigned>(args.threads));
  std::vector<bench::SolveRow> rows;
  const auto t0 = std::chrono::steady_clock::now();
  sim::FigureData fig("Figure 7 (replicas vs. incoming requests)",
                      "requests/s", rates);
  fig.add_series("log-based",
                 bench::sweep_series_timed(pool, rates, base,
                                           baseline::logbased_policy(),
                                           args.seeds, "fig7_locality",
                                           "log-based", rows));
  fig.add_series("lesslog",
                 bench::sweep_series_timed(pool, rates, base,
                                           baseline::lesslog_policy(),
                                           args.seeds, "fig7_locality",
                                           "lesslog", rows));
  fig.add_series("random",
                 bench::sweep_series_timed(pool, rates, base,
                                           baseline::random_policy(),
                                           args.seeds, "fig7_locality",
                                           "random", rows));
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  bench::emit(fig, args);
  if (args.json.has_value()) bench::write_json(*args.json, args, rows, wall_ms);

  bench::check(fig.dominates("lesslog", "random", 0.02),
               "LessLog uses fewer replicas than random at every rate");
  bench::check(
      fig.find("lesslog")->values.back() * 1.3 <
          fig.find("random")->values.back(),
      "the gap to random is decisive at the top rate (\"significantly\")");
  bench::check(fig.dominates("log-based", "lesslog", 0.05),
               "perfect-log-based needs at most ~LessLog's replica count");
  bench::check(fig.dominates("lesslog", "log-based", 1.0),
               "LessLog stays within ~2x of log-based (\"slightly more\")");
  bench::check(fig.roughly_increasing("lesslog", 3.0),
               "replica demand grows with the request rate");
  return 0;
}
