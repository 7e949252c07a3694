// Figure 5 — "An evenly-distributed load".
//
// One popular file; the total request rate sweeps 1,000..20,000 req/s,
// evenly distributed over all nodes of a 1024-slot system (0% dead);
// replicas are created at the most overloaded node until no node exceeds
// 100 req/s. Series: log-based, LessLog, random (the paper's three
// methods, all resolving lookups through the same binomial tree).
//
// Paper claims checked: LessLog ≪ random ("significantly fewer") and
// LessLog ≳ log-based ("slightly more"); replica demand grows with rate.
#include "bench_common.hpp"

#include "lesslog/baseline/policy.hpp"

int main(int argc, char** argv) {
  using namespace lesslog;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::vector<double> rates = bench::paper_rates(args.quick);
  sim::ExperimentConfig base = bench::paper_config();
  base.workload = sim::WorkloadKind::kUniform;
  args.apply(base);
  bench::print_header("Figure 5: replicas to balance, even distribution",
                      base, args);

  util::ThreadPool pool(static_cast<unsigned>(args.threads));
  std::vector<bench::SolveRow> rows;
  const auto t0 = std::chrono::steady_clock::now();
  sim::FigureData fig("Figure 5 (replicas vs. incoming requests)",
                      "requests/s", rates);
  fig.add_series("log-based",
                 bench::sweep_series_timed(pool, rates, base,
                                           baseline::logbased_policy(),
                                           args.seeds, "fig5_even_load",
                                           "log-based", rows));
  fig.add_series("lesslog",
                 bench::sweep_series_timed(pool, rates, base,
                                           baseline::lesslog_policy(),
                                           args.seeds, "fig5_even_load",
                                           "lesslog", rows));
  fig.add_series("random",
                 bench::sweep_series_timed(pool, rates, base,
                                           baseline::random_policy(),
                                           args.seeds, "fig5_even_load",
                                           "random", rows));
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  bench::emit(fig, args);
  if (args.json.has_value()) bench::write_json(*args.json, args, rows, wall_ms);

  bench::check(fig.dominates("lesslog", "random"),
               "LessLog uses fewer replicas than random at every rate");
  bench::check(
      fig.find("lesslog")->values.back() * 1.5 <
          fig.find("random")->values.back(),
      "the gap to random is decisive at the top rate (\"significantly\")");
  bench::check(fig.dominates("log-based", "lesslog", 0.05),
               "perfect-log-based needs at most ~LessLog's replica count");
  bench::check(fig.dominates("lesslog", "log-based", 0.8),
               "LessLog stays within ~1.8x of log-based (\"slightly more\")");
  bench::check(fig.roughly_increasing("lesslog", 2.0),
               "replica demand grows with the request rate");
  return bench::enforce_wall_gate(args, wall_ms);
}
