// fig5_solve_m14 — the paper's Figure 5 sweep (one popular file, even
// load, replicate until no node exceeds capacity 100 req/s) at m = 14:
// rates 1k..20k req/s x {log-based, lesslog, random} x five seeds, on
// the incremental fluid solver, one thread. It exercises sim's load
// solver and core's placement only — no events, messages or sockets —
// so it is the bypass workload for every packet-path change.
//
// A run makes three sweeps, each on its own block of five seeds drawn
// from --seed. Nine tenths of the time goes to the random policy, whose
// cost per solve moves by a tenth from one block of seeds to the next;
// fifteen seeds a cell keep that from setting the run's result.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>

#include "layers.hpp"
#include "lesslog/baseline/policy.hpp"
#include "lesslog/sim/experiment.hpp"
#include "lesslog/sim/metrics.hpp"
#include "workloads.hpp"

namespace lesslog::benchmark {

namespace {

struct Policy {
  const char* name;
  sim::PlacementFn fn;
};

struct Cell {
  std::size_t policy;
  std::size_t rate;
  std::uint64_t seed;  ///< 0-based within the block
};

constexpr int kSeedsPerBlock = 5;
/// A set-up call's time moves by half with what the host runs beside it
/// for a second or so at a time, a swing the HostSpeed kernel does not
/// follow; one call every ten cells samples the whole run rather than its
/// first moments.
constexpr std::size_t kSetupEvery = 10;
/// Sweeps per second of run length: three at the default 20 s, each
/// about six seconds on the 4-vCPU host. The count is fixed by the run
/// length alone, so one seed always gives the same inputs.
constexpr double kSweepsPerS = 0.15;

struct Sweep {
  std::vector<int> replicas;  ///< per cell
  UnitTimes cells;            ///< one unit per solver call
  std::vector<double> setup_s;  ///< the set-up calls timed among the cells
  std::int64_t solves = 0;
  std::int64_t unbalanced = 0;
  double wall_s = 0.0;
};

class Fig5 {
 public:
  explicit Fig5(const RunArgs& args)
      : m_(args.smoke ? 10 : 14), seed_(args.seed) {
    for (int k = 1; k <= 20; ++k) {
      if (!args.smoke || k % 4 == 0) rates_.push_back(1000.0 * k);
    }
    policies_ = {{"log-based", baseline::logbased_policy()},
                 {"lesslog", baseline::lesslog_policy()},
                 {"random", baseline::random_policy()}};
    const int seeds = args.smoke ? 2 : kSeedsPerBlock;
    for (std::size_t p = 0; p < policies_.size(); ++p) {
      for (std::size_t r = 0; r < rates_.size(); ++r) {
        for (int s = 0; s < seeds; ++s) {
          cells_.push_back({p, r, static_cast<std::uint64_t>(s)});
        }
      }
    }
  }

  [[nodiscard]] int m() const noexcept { return m_; }
  [[nodiscard]] std::size_t cells() const noexcept { return cells_.size(); }

  /// One experiment call that places nothing: the solver's fixed per-call
  /// set-up (liveness word, tree, demand, first solve).
  [[nodiscard]] double setup_call_s() const {
    const sim::PlacementFn none =
        [](const sim::PlacementContext&) -> std::optional<core::Pid> {
      return std::nullopt;
    };
    const Clock::time_point t0 = Clock::now();
    keep(sim::run_replication_experiment(config(cells_.back(), 0), none));
    return seconds_since(t0);
  }

  /// One sweep over every cell, on seed block `block`, with a set-up call
  /// timed before every kSetupEvery-th cell (its time is not the sweep's).
  [[nodiscard]] Sweep sweep(int block, SpanLog* spans) const {
    Sweep out;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (i % kSetupEvery == 0) out.setup_s.push_back(setup_call_s());
      const Cell& c = cells_[i];
      sim::ExperimentResult r;
      const std::int64_t start = now_ns();
      out.cells.time([&] {
        r = sim::run_replication_experiment(config(c, block),
                                            policies_[c.policy].fn);
      });
      host_speed().sample();
      const std::int64_t end = now_ns();
      out.replicas.push_back(r.replicas_created);
      out.solves += r.replicas_created + 1;
      if (!r.balanced) ++out.unbalanced;
      if (spans != nullptr) {
        std::ostringstream line;
        line << "{\"span\": \"solve\", \"start_ns\": " << start
             << ", \"end_ns\": " << end << ", \"rate\": " << rates_[c.rate]
             << ", \"policy\": \"" << policies_[c.policy].name
             << "\", \"seed\": " << config(c, block).seed
             << ", \"replicas\": " << r.replicas_created << "}";
        spans->add(line.str());
      }
    }
    out.wall_s = seconds_since(t0);
    for (const double setup : out.setup_s) out.wall_s -= setup;
    return out;
  }

  /// The paper-shape checks of bench/fig5_even_load on mean replicas
  /// over every seed of every sweep.
  void check_shape(const std::vector<Sweep>& sweeps, Result& result) const {
    sim::FigureData fig("fig5", "requests/s", rates_);
    std::int64_t unbalanced = 0;
    for (const Sweep& s : sweeps) unbalanced += s.unbalanced;
    for (std::size_t p = 0; p < policies_.size(); ++p) {
      std::vector<double> sum(rates_.size(), 0.0);
      std::vector<double> n(rates_.size(), 0.0);
      for (const Sweep& s : sweeps) {
        for (std::size_t i = 0; i < cells_.size(); ++i) {
          if (cells_[i].policy != p) continue;
          sum[cells_[i].rate] += s.replicas[i];
          n[cells_[i].rate] += 1.0;
        }
      }
      for (std::size_t r = 0; r < sum.size(); ++r) sum[r] /= n[r];
      fig.add_series(policies_[p].name, std::move(sum));
    }
    std::cout << fig.to_table().render() << "\n";
    const std::vector<double>& lesslog = fig.find("lesslog")->values;
    const std::vector<double>& random = fig.find("random")->values;
    bool below_random = true;
    for (std::size_t r = 0; r < rates_.size(); ++r) {
      below_random = below_random && lesslog[r] < random[r];
    }
    result.gate(below_random,
                "LessLog places fewer replicas than random at every rate");
    result.gate(fig.dominates("lesslog", "log-based", 0.8),
                "LessLog stays within 1.8x of log-based at every rate");
    result.gate(unbalanced == 0, "every cell ends balanced");
  }

 private:
  /// Block b of a run holds seeds 5 * (64 * seed + b) + 1 .. + 5.
  [[nodiscard]] sim::ExperimentConfig config(const Cell& c, int block) const {
    sim::ExperimentConfig cfg;
    cfg.m = m_;
    cfg.b = 0;
    cfg.capacity = 100.0;
    cfg.workload = sim::WorkloadKind::kUniform;
    cfg.total_rate = rates_[c.rate];
    cfg.seed = kSeedsPerBlock * (64 * seed_ + static_cast<std::uint64_t>(block)) +
               c.seed + 1;
    cfg.solver = sim::SolverMode::kIncremental;
    return cfg;
  }

  int m_;
  std::uint64_t seed_;
  std::vector<double> rates_;
  std::vector<Policy> policies_;
  std::vector<Cell> cells_;
};

std::string replicas_digest(const std::vector<Sweep>& sweeps) {
  Digest d;
  for (const Sweep& s : sweeps) {
    for (const int r : s.replicas) d.add(static_cast<std::uint64_t>(r));
  }
  return d.hex();
}

}  // namespace

void run_fig5(const RunArgs& args, Result& result) {
  const Fig5 fig5(args);
  const int blocks =
      args.smoke || args.trace
          ? 1
          : std::max(1, static_cast<int>(std::lround(kSweepsPerS * args.seconds)));
  std::cout << "fig5: m=" << fig5.m() << ", " << blocks << " sweeps of "
            << fig5.cells() << " solver calls, seed " << args.seed << "\n";

  std::vector<Sweep> sweeps;
  for (int b = 0; b < blocks; ++b) sweeps.push_back(fig5.sweep(b, nullptr));
  fig5.check_shape(sweeps, result);
  const std::string digest = replicas_digest(sweeps);
  std::cout << "replicas digest: " << digest << "\n";

  if (args.trace) {
    const Sweep& first = sweeps.front();
    SpanLog spans;
    const std::vector<Sweep> traced{fig5.sweep(0, &spans)};
    result.gate(replicas_digest(traced) == digest,
                "the traced sweep places the same replicas");
    LayerInputs in;
    in.m = fig5.m();
    in.seed = args.seed;
    const LayerCosts costs = measure_layers(in);
    Ledger ledger;
    ledger.add("sim.solver_setup", static_cast<double>(fig5.cells()),
               costs.solver_setup);
    ledger.add("sim.solver_solve", static_cast<double>(traced[0].solves),
               costs.solver_solve);
    LayerCounts counts;
    counts.solver_solves = static_cast<double>(traced[0].solves);
    counts.explained_frac = ledger.print("fig5 sweep", traced[0].wall_s);
    counts.setup_construct_frac = 1.0;
    counts.trace_overhead_frac =
        (traced[0].wall_s - first.wall_s) / first.wall_s;
    counts.fig5_wall_s = first.wall_s;
    report_layers(costs, counts, result);
    result.gate(spans.write(args.out_dir + "/spans.fig5_solve_m14.seed" +
                            std::to_string(args.seed) + ".jsonl"),
                "spans written");
    result.attempted = static_cast<std::int64_t>(2 * fig5.cells());
    result.failed = first.unbalanced + traced[0].unbalanced;
    return;
  }

  double solve_ns = 0.0;
  double solve_cpu_ns = 0.0;
  double solves = 0.0;
  std::vector<double> walls;
  std::vector<double> setups;
  for (const Sweep& s : sweeps) {
    setups.insert(setups.end(), s.setup_s.begin(), s.setup_s.end());
    for (const double ns : s.cells.wall_ns) solve_ns += ns;
    for (const double ns : s.cells.cpu_ns) solve_cpu_ns += ns;
    solves += static_cast<double>(s.solves);
    walls.push_back(s.wall_s);
    result.attempted += static_cast<std::int64_t>(s.replicas.size());
    result.failed += s.unbalanced;
  }
  const HostSpeed& host = host_speed();
  const double slowdown = host.slowdown();
  result.end_to_end("setup_s", median(setups) / slowdown, "s");
  result.end_to_end("peak_rss_mb", read_proc().value().peak_rss_mb, "MB");
  result.end_to_end("ops_per_s", solves / (1e-9 * solve_ns) * slowdown, "1/s");
  result.end_to_end("cpu_us_per_op", 1e-3 * solve_cpu_ns / solves / slowdown,
                    "us");
  host.report(result);
  result.detail("setup_s.measured", median(setups), "s");
  result.detail("ops_per_s.measured", solves / (1e-9 * solve_ns), "1/s");
  result.detail("cpu_us_per_op.measured", 1e-3 * solve_cpu_ns / solves, "us");
  result.detail("fig5_wall_s", median(walls), "s");
  result.detail("sweeps", static_cast<double>(sweeps.size()), "count");
  result.detail("solves", solves, "count");
}

}  // namespace lesslog::benchmark
