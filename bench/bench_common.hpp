// Shared scaffolding for the figure-reproduction benches.
//
// Every bench binary:
//   * runs the paper's full-scale parameters by default (m = 10, capacity
//     100 req/s, request rates 1,000..20,000),
//   * accepts --quick (coarser sweep for smoke runs), --seeds N (averaging
//     width), --csv <path> (mirror the table to CSV), --json <path>
//     (machine-readable rows with per-solve timings), --m N (ID-space
//     width override), --solver scratch|incremental (which load solver
//     drives the balance loop), and --threads N (worker threads for
//     parallel cells; 0 = hardware concurrency),
//   * prints the parameter block, the per-rate table, an ASCII chart, and
//     the shape checks corresponding to the paper's claims.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_schema.hpp"
#include "lesslog/obs/export.hpp"
#include "lesslog/sim/experiment.hpp"
#include "lesslog/sim/metrics.hpp"
#include "lesslog/util/thread_pool.hpp"

namespace lesslog::bench {

struct BenchArgs {
  bool quick = false;
  /// Tiny pass/fail cell instead of the sweep (wire benches only).
  bool smoke = false;
  int seeds = 5;
  /// Worker threads for parallel bench cells; 0 means hardware
  /// concurrency (the ThreadPool default).
  int threads = 0;
  std::optional<std::string> csv;
  std::optional<std::string> json;
  /// Observability export: "json" or "csv" ("lesslog.metrics" v1
  /// documents; json output is validated back before the bench exits).
  std::optional<std::string> metrics;
  /// Destination for --metrics; stdout when unset.
  std::optional<std::string> metrics_out;
  std::optional<int> m;
  /// Engine shards for the sharded-swarm benches (abl_scale); other
  /// benches ignore it. 1 = the serial engine.
  int shards = 1;
  sim::SolverMode solver = sim::SolverMode::kIncremental;
  /// Wall-time regression gate (milliseconds) on the bench's timed
  /// region; exceeded = nonzero exit. See enforce_wall_gate().
  std::optional<int> max_wall_ms;
  /// Peak-memory regression gate (MB of the process's VmHWM); exceeded =
  /// nonzero exit. See enforce_rss_gate().
  std::optional<int> max_rss_mb;

  [[noreturn]] static void usage_exit() {
    std::cerr << "usage: bench [--quick] [--smoke] [--seeds N] "
                 "[--threads N] [--csv path] [--json path] "
                 "[--metrics json|csv] [--metrics-out path] [--m N] "
                 "[--shards N] [--solver scratch|incremental] "
                 "[--max-wall-ms N] [--max-rss-mb N]\n";
    std::exit(2);
  }

  /// Strict integer parse for flag values: rejects garbage, trailing
  /// text, and values outside [low, limit] instead of throwing or
  /// silently accepting them (std::stoi would throw on "foo" and accept
  /// "-3").
  static int parse_bounded_int(const char* flag, const char* text,
                               long limit, long low = 1) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || value < low ||
        value > limit) {
      std::cerr << flag << " expects an integer in [" << low << ", "
                << limit << "], got '" << text << "'\n";
      usage_exit();
    }
    return static_cast<int>(value);
  }

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        args.quick = true;
      } else if (arg == "--smoke") {
        args.smoke = true;
      } else if (arg == "--metrics" && i + 1 < argc) {
        const std::string format = argv[++i];
        if (format != "json" && format != "csv") {
          std::cerr << "--metrics expects 'json' or 'csv', got '" << format
                    << "'\n";
          usage_exit();
        }
        args.metrics = format;
      } else if (arg == "--metrics-out" && i + 1 < argc) {
        args.metrics_out = argv[++i];
      } else if (arg == "--seeds" && i + 1 < argc) {
        args.seeds = parse_bounded_int("--seeds", argv[++i], 10000);
      } else if (arg == "--threads" && i + 1 < argc) {
        args.threads =
            parse_bounded_int("--threads", argv[++i], 4096, /*low=*/0);
      } else if (arg == "--csv" && i + 1 < argc) {
        args.csv = argv[++i];
      } else if (arg == "--json" && i + 1 < argc) {
        args.json = argv[++i];
      } else if (arg == "--m" && i + 1 < argc) {
        args.m = parse_bounded_int("--m", argv[++i], util::kMaxIdBits);
      } else if (arg == "--shards" && i + 1 < argc) {
        args.shards = parse_bounded_int("--shards", argv[++i], 4096);
      } else if (arg == "--max-wall-ms" && i + 1 < argc) {
        args.max_wall_ms =
            parse_bounded_int("--max-wall-ms", argv[++i], 100000000);
      } else if (arg == "--max-rss-mb" && i + 1 < argc) {
        args.max_rss_mb =
            parse_bounded_int("--max-rss-mb", argv[++i], 100000000);
      } else if (arg == "--solver" && i + 1 < argc) {
        const std::string mode = argv[++i];
        if (mode == "scratch") {
          args.solver = sim::SolverMode::kScratch;
        } else if (mode == "incremental") {
          args.solver = sim::SolverMode::kIncremental;
        } else {
          std::cerr << "--solver expects 'scratch' or 'incremental', got '"
                    << mode << "'\n";
          usage_exit();
        }
      } else {
        usage_exit();
      }
    }
    return args;
  }

  /// Applies the command-line overrides to a figure's base config.
  void apply(sim::ExperimentConfig& cfg) const {
    if (m.has_value()) cfg.m = *m;
    cfg.solver = solver;
  }

  [[nodiscard]] const char* solver_name() const {
    return solver == sim::SolverMode::kScratch ? "scratch" : "incremental";
  }
};

/// The paper's x axis: 1,000..20,000 requests/s ("incoming requests/1000"
/// from 1 to 20). --quick keeps every fourth point.
inline std::vector<double> paper_rates(bool quick) {
  std::vector<double> rates;
  for (int k = 1; k <= 20; ++k) {
    if (!quick || k % 4 == 0) rates.push_back(1000.0 * k);
  }
  return rates;
}

/// The paper's fixed parameters (Section 6): m = 10, b = 0, capacity 100.
inline sim::ExperimentConfig paper_config() {
  sim::ExperimentConfig cfg;
  cfg.m = 10;
  cfg.b = 0;
  cfg.capacity = 100.0;
  return cfg;
}

/// One machine-readable result row: a (figure, rate, policy) cell with
/// its mean replica count and the wall time per balance-loop iteration
/// (one load solve plus one placement decision).
struct SolveRow {
  std::string bench;
  int m = 0;
  double rate = 0.0;
  std::string policy;
  double ns_per_solve = 0.0;
  double replicas = 0.0;
};

/// Serializes a document and verifies its own bytes parse back to the
/// same value — the write path and parse path police each other on every
/// bench run, not just in the round-trip test.
inline void write_schema_checked(const std::string& path,
                                 const JsonSchema& doc) {
  std::ostringstream body;
  doc.write(body);
  const std::optional<JsonSchema> back = JsonSchema::parse(body.str());
  if (!back || *back != doc) {
    std::cerr << "internal error: bench json failed its own round-trip\n";
    std::exit(2);
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write json to " << path << "\n";
    std::exit(2);
  }
  out << body.str();
  std::cout << "json written to " << path << "\n";
}

/// Writes solve-family rows as one "lesslog.bench" v1 document (see
/// bench_schema.hpp for the shape). Solve cells average seeds 1..N, so
/// the document carries `seeds` and leaves `seed` at 0.
inline void write_json(const std::string& path, const BenchArgs& args,
                       const std::vector<SolveRow>& rows, double wall_ms) {
  JsonSchema doc;
  doc.bench = rows.empty() ? "solve" : rows.front().bench;
  doc.family = "solve";
  doc.seeds = args.seeds;
  doc.threads = args.threads;
  doc.quick = args.quick;
  doc.solver = args.solver_name();
  doc.wall_ms = wall_ms;
  for (const SolveRow& r : rows) {
    SchemaRow row;
    row.bench = r.bench;
    row.cell = "m=" + std::to_string(r.m) +
               ",rate=" + std::to_string(static_cast<long>(r.rate)) +
               ",policy=" + r.policy;
    row.tags.emplace_back("policy", r.policy);
    row.metrics.emplace_back("m", static_cast<double>(r.m));
    row.metrics.emplace_back("rate", r.rate);
    row.metrics.emplace_back("ns_per_solve", r.ns_per_solve);
    row.metrics.emplace_back("replicas", r.replicas);
    doc.rows.push_back(std::move(row));
  }
  write_schema_checked(path, doc);
}

/// Runs `n` independent bench cells on a thread pool and returns the
/// results gathered in cell-index order. Each cell owns its swarm or engine,
/// so cells share nothing; collecting by index makes the output (and any
/// downstream float summation done in index order) byte-identical for
/// every --threads value, including 1.
template <typename Fn>
auto run_cells_parallel(int threads, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(n);
  util::ThreadPool pool(threads <= 0 ? 0U : static_cast<unsigned>(threads));
  util::parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// One machine-readable row from a packet-level (wire) bench: a named
/// cell with its scalar outputs as (name, value) pairs.
struct WireRow {
  std::string bench;
  std::string cell;
  std::vector<std::pair<std::string, double>> values;
};

/// Writes wire-bench rows as one "lesslog.bench" v1 document. Wire cells
/// run at one fixed base seed, carried in `seed`.
inline void write_wire_json(const std::string& path, const BenchArgs& args,
                            const std::vector<WireRow>& rows,
                            double wall_ms, std::uint64_t seed = 42) {
  JsonSchema doc;
  doc.bench = rows.empty() ? "wire" : rows.front().bench;
  doc.family = "wire";
  doc.seed = seed;
  doc.threads = args.threads;
  doc.quick = args.quick;
  doc.wall_ms = wall_ms;
  for (const WireRow& r : rows) {
    SchemaRow row;
    row.bench = r.bench;
    row.cell = r.cell;
    row.metrics = r.values;
    doc.rows.push_back(std::move(row));
  }
  write_schema_checked(path, doc);
}

/// Emits the --metrics document ("lesslog.metrics" v1) to --metrics-out
/// (stdout when unset). JSON output is validated back against the schema
/// before anything is written; a violation is a hard bench failure, which
/// is what lets a ctest validate the export with a single bench
/// invocation. Returns 0 on success (shell exit-code convention).
inline int emit_metrics(const BenchArgs& args, const std::string& source,
                        std::uint64_t seed, const obs::Snapshot& snapshot,
                        const obs::TimeSeries* series = nullptr) {
  if (!args.metrics.has_value()) return 0;
  std::ostringstream body;
  if (*args.metrics == "json") {
    obs::write_metrics_json(body, snapshot, source, seed, series);
    const std::string error = obs::validate_metrics_json(body.str());
    if (!error.empty()) {
      std::cerr << "metrics schema violation: " << error << "\n";
      return 1;
    }
  } else {
    obs::write_metrics_csv(body, snapshot, source, seed, series);
  }
  if (args.metrics_out.has_value()) {
    std::ofstream out(*args.metrics_out);
    if (!out) {
      std::cerr << "cannot write metrics to " << *args.metrics_out << "\n";
      return 1;
    }
    out << body.str();
    std::cout << "metrics written to " << *args.metrics_out << "\n";
  } else {
    std::cout << body.str();
  }
  return 0;
}

/// Replicas-to-balance for one (config, policy) cell averaged over seeds
/// 1..seeds; cells that end irreducibly overloaded still report their
/// replica count (the system sheds everything sheddable first).
inline double mean_replicas(const sim::ExperimentConfig& base,
                            const sim::PlacementFn& policy, int seeds,
                            int* unbalanced_cells = nullptr) {
  double total = 0.0;
  for (int seed = 1; seed <= seeds; ++seed) {
    sim::ExperimentConfig cfg = base;
    cfg.seed = static_cast<std::uint64_t>(seed);
    const sim::ExperimentResult r =
        sim::run_replication_experiment(cfg, policy);
    total += r.replicas_created;
    if (!r.balanced && unbalanced_cells != nullptr) ++(*unbalanced_cells);
  }
  return total / seeds;
}

/// mean_replicas plus wall-clock accounting: ns_per_solve is the cell's
/// wall time divided by the number of balance-loop iterations it ran
/// (replicas_created + 1 solves per seed — the final iteration solves
/// without placing).
struct CellTiming {
  double mean_replicas = 0.0;
  double ns_per_solve = 0.0;
};

inline CellTiming mean_replicas_timed(const sim::ExperimentConfig& base,
                                      const sim::PlacementFn& policy,
                                      int seeds) {
  double total = 0.0;
  std::int64_t solves = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int seed = 1; seed <= seeds; ++seed) {
    sim::ExperimentConfig cfg = base;
    cfg.seed = static_cast<std::uint64_t>(seed);
    const sim::ExperimentResult r =
        sim::run_replication_experiment(cfg, policy);
    total += r.replicas_created;
    solves += r.replicas_created + 1;
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  CellTiming out;
  out.mean_replicas = total / seeds;
  out.ns_per_solve =
      solves > 0 ? static_cast<double>(ns) / static_cast<double>(solves) : 0.0;
  return out;
}

/// Fills one series of a figure in parallel over the x axis.
inline std::vector<double> sweep_series(
    util::ThreadPool& pool, const std::vector<double>& rates,
    const sim::ExperimentConfig& base, const sim::PlacementFn& policy,
    int seeds) {
  std::vector<double> ys(rates.size(), 0.0);
  util::parallel_for(pool, rates.size(), [&](std::size_t i) {
    sim::ExperimentConfig cfg = base;
    cfg.total_rate = rates[i];
    ys[i] = mean_replicas(cfg, policy, seeds);
  });
  return ys;
}

/// sweep_series that also appends one timed SolveRow per rate point.
inline std::vector<double> sweep_series_timed(
    util::ThreadPool& pool, const std::vector<double>& rates,
    const sim::ExperimentConfig& base, const sim::PlacementFn& policy,
    int seeds, const std::string& bench_name, const std::string& policy_name,
    std::vector<SolveRow>& rows) {
  std::vector<double> ys(rates.size(), 0.0);
  std::vector<SolveRow> local(rates.size());
  util::parallel_for(pool, rates.size(), [&](std::size_t i) {
    sim::ExperimentConfig cfg = base;
    cfg.total_rate = rates[i];
    const CellTiming t = mean_replicas_timed(cfg, policy, seeds);
    ys[i] = t.mean_replicas;
    local[i] = SolveRow{bench_name,  cfg.m,           rates[i],
                        policy_name, t.ns_per_solve, t.mean_replicas};
  });
  rows.insert(rows.end(), local.begin(), local.end());
  return ys;
}

inline void print_header(const std::string& title,
                         const sim::ExperimentConfig& cfg,
                         const BenchArgs& args) {
  std::cout << "== " << title << " ==\n"
            << "m=" << cfg.m << " (" << util::space_size(cfg.m)
            << " ID slots), b=" << cfg.b << ", capacity=" << cfg.capacity
            << " req/s, seeds averaged=" << args.seeds
            << ", solver=" << args.solver_name() << "\n\n";
}

inline void emit(const sim::FigureData& fig, const BenchArgs& args,
                 int precision = 1) {
  util::Table table = fig.to_table();
  table.set_precision(precision);
  std::cout << table.render() << "\n" << fig.ascii_chart() << "\n";
  if (args.csv.has_value()) {
    fig.write_csv(*args.csv);
    std::cout << "csv written to " << *args.csv << "\n";
  }
}

inline void check(bool ok, const std::string& claim) {
  std::cout << (ok ? "[shape OK]   " : "[shape FAIL] ") << claim << "\n";
}

/// Enforces --max-wall-ms over the bench's timed region; the return value
/// is the process exit code (0 pass, 1 fail). Thresholds are set an order
/// of magnitude above an expected run, so the gate trips on structural
/// regressions (a solver silently falling back to scratch, an O(n) path
/// going quadratic) while staying deaf to machine noise. No-op when the
/// flag is absent.
[[nodiscard]] inline int enforce_wall_gate(const BenchArgs& args,
                                           double wall_ms) {
  if (!args.max_wall_ms.has_value()) return 0;
  const bool ok = wall_ms <= static_cast<double>(*args.max_wall_ms);
  std::cout << (ok ? "[wall OK]    " : "[wall FAIL]  ") << wall_ms
            << " ms against the " << *args.max_wall_ms
            << " ms --max-wall-ms gate\n";
  return ok ? 0 : 1;
}

/// One `/proc/self/status` field in MB ("VmHWM:" peak resident set,
/// "VmRSS:" current); 0 when the file or field is missing.
[[nodiscard]] inline double proc_status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

/// Enforces --max-rss-mb against the process's peak resident set
/// (VmHWM): the return value is the process exit code (0 pass, 1 fail).
/// Like the wall gate, the ceiling sits well above an expected run so it
/// trips on structural growth (per-peer state bloating, a buffer that is
/// never freed), not on allocator noise. No-op when the flag is absent.
[[nodiscard]] inline int enforce_rss_gate(const BenchArgs& args) {
  if (!args.max_rss_mb.has_value()) return 0;
  const double peak_mb = proc_status_mb("VmHWM:");
  const bool ok = peak_mb > 0.0 &&
                  peak_mb <= static_cast<double>(*args.max_rss_mb);
  std::cout << (ok ? "[rss OK]     " : "[rss FAIL]   ") << peak_mb
            << " MB peak RSS against the " << *args.max_rss_mb
            << " MB --max-rss-mb gate\n";
  return ok ? 0 : 1;
}

}  // namespace lesslog::bench
