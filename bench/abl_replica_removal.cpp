// Ablation A1 — counter-based replica removal.
//
// The paper repeatedly notes that "a simple counter-based mechanism to
// remove replicas that are not frequently accessed" can further reduce
// LessLog's replica count. This ablation balances the Figure 5 and
// Figure 7 setups with LessLog, then prunes replicas serving below a
// threshold and reports how many survive and whether the system remains
// balanced.
#include "bench_common.hpp"

#include "lesslog/baseline/policy.hpp"

int main(int argc, char** argv) {
  using namespace lesslog;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::vector<double> rates = bench::paper_rates(args.quick);
  util::ThreadPool pool(static_cast<unsigned>(args.threads));

  for (const auto& [name, kind] :
       {std::pair<std::string, sim::WorkloadKind>{
            "even distribution", sim::WorkloadKind::kUniform},
        {"locality model", sim::WorkloadKind::kLocality}}) {
    sim::ExperimentConfig base = bench::paper_config();
    base.workload = kind;
    bench::print_header("Ablation A1: counter-based removal, " + name, base,
                        args);

    const std::vector<double> thresholds{0.0, 10.0, 25.0, 50.0};
    sim::FigureData fig("A1 " + name + " (replicas after removal)",
                        "requests/s", rates);
    std::vector<std::vector<double>> ys(
        thresholds.size(), std::vector<double>(rates.size(), 0.0));
    std::vector<double> balanced_frac(rates.size(), 0.0);

    util::parallel_for(pool, rates.size(), [&](std::size_t i) {
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        double total = 0.0;
        double still = 0.0;
        for (int seed = 1; seed <= args.seeds; ++seed) {
          sim::ExperimentConfig cfg = base;
          cfg.total_rate = rates[i];
          cfg.seed = static_cast<std::uint64_t>(seed);
          const sim::RemovalResult r = sim::run_with_removal(
              cfg, baseline::lesslog_policy(), thresholds[t]);
          total += r.replicas_after_removal;
          still += r.still_balanced ? 1.0 : 0.0;
        }
        ys[t][i] = total / args.seeds;
        if (t + 1 == thresholds.size()) balanced_frac[i] = still / args.seeds;
      }
    });
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      fig.add_series("threshold " + std::to_string(
                         static_cast<int>(thresholds[t])) + " req/s",
                     std::move(ys[t]));
    }
    bench::BenchArgs emit_args = args;
    if (args.csv.has_value()) {
      emit_args.csv = *args.csv + "." + name + ".csv";
    }
    bench::emit(fig, emit_args);

    bool monotone = true;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      for (std::size_t t = 1; t < thresholds.size(); ++t) {
        monotone = monotone &&
                   fig.series(t).values[i] <= fig.series(t - 1).values[i];
      }
    }
    bench::check(monotone,
                 "higher removal thresholds keep fewer replicas");
    bench::check(fig.dominates(fig.series(1).name, fig.series(0).name),
                 "a modest threshold already removes cold replicas");
  }
  return 0;
}
