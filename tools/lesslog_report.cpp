// lesslog_report — regenerate the full reproduction report in one command.
//
//   lesslog_report [--out REPORT.md] [--quick] [--seeds N]
//
// Runs every figure of the paper (and the headline ablations) in-process
// and writes a single Markdown report with the measured tables and the
// machine-checked shape claims — the artifact to attach to a reproduction
// review.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lesslog/baseline/policy.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/sim/catalog.hpp"
#include "lesslog/sim/experiment.hpp"
#include "lesslog/sim/metrics.hpp"
#include "lesslog/util/thread_pool.hpp"

namespace {

using namespace lesslog;

struct Options {
  std::string out = "REPORT.md";
  bool quick = false;
  int seeds = 5;
};

std::vector<double> rates(bool quick) {
  std::vector<double> out;
  for (int k = 1; k <= 20; ++k) {
    if (!quick || k % 4 == 0) out.push_back(1000.0 * k);
  }
  return out;
}

double mean_replicas(sim::ExperimentConfig cfg, const sim::PlacementFn& p,
                     int seeds) {
  double total = 0.0;
  for (int seed = 1; seed <= seeds; ++seed) {
    cfg.seed = static_cast<std::uint64_t>(seed);
    total += sim::run_replication_experiment(cfg, p).replicas_created;
  }
  return total / seeds;
}

sim::FigureData methods_figure(const std::string& title,
                               sim::WorkloadKind kind, const Options& opt,
                               util::ThreadPool& pool) {
  const std::vector<double> xs = rates(opt.quick);
  sim::FigureData fig(title, "requests/s", xs);
  for (const auto& [name, policy] :
       {std::pair<std::string, sim::PlacementFn>{"log-based",
                                                 baseline::logbased_policy()},
        {"lesslog", baseline::lesslog_policy()},
        {"random", baseline::random_policy()}}) {
    std::vector<double> ys(xs.size(), 0.0);
    util::parallel_for(pool, xs.size(), [&, &policy_ref = policy](std::size_t i) {
      sim::ExperimentConfig cfg;
      cfg.m = 10;
      cfg.capacity = 100.0;
      cfg.workload = kind;
      cfg.total_rate = xs[i];
      ys[i] = mean_replicas(cfg, policy_ref, opt.seeds);
    });
    fig.add_series(name, std::move(ys));
  }
  return fig;
}

sim::FigureData dead_figure(const std::string& title, sim::WorkloadKind kind,
                            const Options& opt, util::ThreadPool& pool) {
  const std::vector<double> xs = rates(opt.quick);
  sim::FigureData fig(title, "requests/s", xs);
  for (const double dead : {0.1, 0.2, 0.3}) {
    std::vector<double> ys(xs.size(), 0.0);
    util::parallel_for(pool, xs.size(), [&](std::size_t i) {
      sim::ExperimentConfig cfg;
      cfg.m = 10;
      cfg.capacity = 100.0;
      cfg.workload = kind;
      cfg.dead_fraction = dead;
      cfg.total_rate = xs[i];
      ys[i] = mean_replicas(cfg, baseline::lesslog_policy(), opt.seeds);
    });
    fig.add_series(std::to_string(static_cast<int>(dead * 100)) + "% dead",
                   std::move(ys));
  }
  return fig;
}

void claim(std::ostream& out, bool ok, const std::string& text) {
  out << "- " << (ok ? "✅" : "❌") << " " << text << "\n";
}

/// Runs one sampled packet-level swarm and appends the observability
/// section: headline wire counters plus the sampled time-series table.
void wire_observability_section(std::ostream& md, const Options& opt) {
  const int m = 6;
  const int requests = opt.quick ? 200 : 500;
  proto::ShardedSwarm::Config cfg;
  cfg.m = m;
  cfg.b = 0;
  cfg.nodes = util::space_size(m);
  cfg.seed = 42;
  cfg.net.base_latency = 0.010;
  cfg.net.jitter = 0.005;
  proto::ShardedSwarm swarm(cfg);

  util::Rng rng(42ULL ^ 0xF00DULL);
  std::vector<std::pair<core::FileId, core::Pid>> files;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const core::FileId f{0x5EED0000ULL + i};
    const core::Pid target{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
    files.emplace_back(f, target);
    swarm.insert(f, target, core::Pid{0});
  }
  swarm.settle();
  // Requests spread over one second so the sampled series shows traffic
  // moving through the swarm, not a single burst.
  const double window = 1.0;
  swarm.enable_metrics_sampling(/*interval=*/0.1,
                                swarm.engine(0).now() + window + 1.0);
  for (int i = 0; i < requests; ++i) {
    const auto& [f, target] = files[rng.bounded(files.size())];
    const core::Pid at{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
    const double delay = window * static_cast<double>(i) / requests;
    swarm.engine(0).after_fixed(delay, [&swarm, f = f, target = target, at] {
      swarm.get(f, target, at);
    });
  }
  swarm.settle();

  const obs::Snapshot snap = swarm.metrics_snapshot(swarm.engine(0).now());
  md << "## Wire observability — sampled swarm run\n\n"
     << "One packet-level swarm (m = 6, " << requests
     << " GETFILE requests), registry sampled every 0.1 s of simulated "
        "time.\nCounters are cumulative; difference adjacent rows for "
        "rates.\n\n";
  const auto counter = [&](const char* name) -> std::uint64_t {
    const std::uint64_t* v = snap.counter(name);
    return v != nullptr ? *v : 0;
  };
  md << "| counter | value |\n|---|---|\n"
     << "| GETs issued | " << counter("client.gets") << " |\n"
     << "| GETs served | " << counter("peer.served") << " |\n"
     << "| forwards | " << counter("peer.forwarded") << " |\n"
     << "| wire bytes out | " << counter("net.bytes_out") << " |\n"
     << "| faults | " << counter("client.faults") << " |\n\n";
  if (const obs::LatencyHistogram* h = snap.histogram("client.get_latency")) {
    std::ostringstream lat;
    lat << std::fixed << std::setprecision(1)
        << 1000.0 * h->percentile(50.0) << " / "
        << 1000.0 * h->percentile(99.0);
    md << "GETFILE latency p50/p99: " << lat.str() << " ms ("
       << h->total() << " samples, octave-bucket resolution).\n\n";
  }
  const obs::TimeSeries& series = swarm.metrics_series();
  if (!series.empty()) {
    md << "```\n"
       << series
              .to_table({"client.gets", "peer.served", "net.bytes_out",
                         "engine.queue_depth"})
              .render()
       << "```\n\n"
       << "Regenerate machine-readably: `abl_latency --smoke --metrics "
          "json`, or any wire\nbench with `--metrics json|csv` "
          "(schema `lesslog.metrics` v1; see docs/OBSERVABILITY.md).\n\n";
  }
}

/// Runs one sharded swarm per PID→shard map under a tree-local workload
/// and appends the cross-shard traffic comparison (the locality-map
/// headline from abl_scale, sized for a report run).
void sharded_locality_section(std::ostream& md, const Options& opt) {
  const int m = opt.quick ? 8 : 10;
  const std::size_t shards = 4;
  const int requests = opt.quick ? 1000 : 4000;
  const int locality_bits = 4;  // issuer shares the target's low m-4 bits

  md << "## Sharded engine — PID→shard map vs. cross-shard traffic\n\n"
     << "One windowed-parallel swarm per map (m = " << m << ", S = "
     << shards << ", clustered geography, " << requests
     << " tree-local GETs:\nthe issuer shares the target's low "
     << (m - locality_bits) << " bits, i.e. lives in its deep XOR "
        "subtree).\n\n"
     << "| map | cross-shard fraction | messages |\n|---|---|---|\n";

  double fracs[2] = {0.0, 0.0};
  int row = 0;
  for (const proto::ShardMap::Kind kind :
       {proto::ShardMap::Kind::kRange, proto::ShardMap::Kind::kSubtree}) {
    proto::ShardedSwarm::Config cfg;
    cfg.m = m;
    cfg.b = 0;
    cfg.nodes = util::space_size(m);
    cfg.seed = 42;
    cfg.shards = shards;
    cfg.shard_map = kind;
    cfg.geo = proto::Geography{.seed = 42, .clusters = shards};
    cfg.client.timeout = 2.0;
    proto::ShardedSwarm swarm(cfg);

    util::Rng rng(42ULL ^ 0xF00DULL);
    std::vector<std::pair<core::FileId, core::Pid>> files;
    for (std::uint64_t i = 0; i < 32; ++i) {
      const core::FileId f{0x5EED0000ULL + i};
      const core::Pid target{
          static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
      files.emplace_back(f, target);
      swarm.insert(f, target, core::Pid{0});
    }
    swarm.settle();
    for (int i = 0; i < requests; ++i) {
      const auto& [f, target] = files[rng.bounded(files.size())];
      const auto high = static_cast<std::uint32_t>(
          rng.bounded(std::uint64_t{1} << locality_bits));
      const core::Pid at{target.value() ^ (high << (m - locality_bits))};
      swarm.get(f, target, at);
    }
    swarm.settle();

    fracs[row] = swarm.cross_shard_fraction();
    md << "| " << proto::shard_map_name(kind) << " | " << std::fixed
       << std::setprecision(4) << fracs[row] << std::defaultfloat
       << " | " << swarm.messages_sent() << " |\n";
    ++row;
  }
  md << "\n";
  claim(md, fracs[1] < fracs[0],
        "the XOR-subtree locality map crosses shard boundaries less than "
        "the range map on tree-local traffic");
  md << "\nOn uniform random (issuer, target) pairs the maps tie: a "
        "lookup path\nascends the XOR tree flipping high PID bits first, "
        "so roughly half its hops\ncross any balanced partition. The "
        "subtree map wins exactly when traffic is\ntree-local — see "
        "ALGORITHM.md §10 and `abl_scale`.\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (arg == "--seeds" && i + 1 < argc) {
      opt.seeds = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: lesslog_report [--out path] [--quick] "
                   "[--seeds N]\n";
      return 2;
    }
  }

  util::ThreadPool pool;
  std::ostringstream md;
  md << "# LessLog reproduction report\n\n"
     << "Generated by `lesslog_report` (seeds averaged: " << opt.seeds
     << (opt.quick ? ", quick sweep" : "") << ").\n"
     << "Setup: m = 10 (1024 ID slots), b = 0, capacity 100 req/s, one "
        "popular file.\nValues are replicas created until no node exceeds "
        "capacity.\n\n";

  std::cout << "figure 5..." << std::flush;
  const sim::FigureData fig5 = methods_figure(
      "Figure 5", sim::WorkloadKind::kUniform, opt, pool);
  md << "## Figure 5 — evenly distributed load\n\n"
     << fig5.to_markdown() << "\n";
  claim(md, fig5.dominates("lesslog", "random"),
        "LessLog ≤ random at every rate (paper: \"significantly fewer\")");
  claim(md, fig5.dominates("log-based", "lesslog", 0.05),
        "log-based ≤ LessLog (paper: LessLog \"slightly more\")");
  claim(md, fig5.roughly_increasing("lesslog", 2.0),
        "replica demand grows with request rate");
  md << "\n";

  std::cout << " figure 6..." << std::flush;
  const sim::FigureData fig6 =
      dead_figure("Figure 6", sim::WorkloadKind::kUniform, opt, pool);
  md << "## Figure 6 — even load, dead nodes (LessLog)\n\n"
     << fig6.to_markdown() << "\n";
  bool similar = true;
  for (std::size_t i = 0; i < fig6.x_values().size(); ++i) {
    double lo = 1e18;
    double hi = 0.0;
    for (std::size_t s = 0; s < fig6.series_count(); ++s) {
      lo = std::min(lo, fig6.series(s).values[i]);
      hi = std::max(hi, fig6.series(s).values[i]);
    }
    similar = similar && hi <= lo * 1.6 + 8.0;
  }
  claim(md, similar, "10/20/30% dead create similar replica counts");
  md << "\n";

  std::cout << " figure 7..." << std::flush;
  const sim::FigureData fig7 = methods_figure(
      "Figure 7", sim::WorkloadKind::kLocality, opt, pool);
  md << "## Figure 7 — locality model (80/20)\n\n"
     << fig7.to_markdown() << "\n";
  claim(md, fig7.dominates("lesslog", "random", 0.02),
        "LessLog ≤ random at every rate");
  claim(md, fig7.dominates("log-based", "lesslog", 0.05),
        "perfect logs ≤ LessLog — the \"slightly more\" gap");
  md << "\n";

  std::cout << " figure 8..." << std::flush;
  const sim::FigureData fig8 =
      dead_figure("Figure 8", sim::WorkloadKind::kLocality, opt, pool);
  md << "## Figure 8 — locality model, dead nodes (LessLog)\n\n"
     << fig8.to_markdown() << "\n"
     << "Cells past ~18k req/s with 30% dead end in irreducible local "
        "overload\n(hot-node client demand exceeds capacity; see "
        "EXPERIMENTS.md).\n\n";

  std::cout << " catalog..." << std::flush;
  md << "## Extension — Zipf catalog (64 files, 16k req/s)\n\n"
     << "| zipf s | replicas | copies/file |\n|---|---|---|\n";
  for (const double s : {0.0, 0.8, 1.1}) {
    sim::CatalogConfig cfg;
    cfg.m = opt.quick ? 8 : 10;
    cfg.total_rate = opt.quick ? 4000.0 : 16000.0;
    cfg.zipf_s = s;
    const sim::CatalogResult r =
        sim::run_catalog_experiment(cfg, baseline::lesslog_policy());
    md << "| " << s << " | " << r.replicas_created << " | "
       << static_cast<double>(r.total_copies) / cfg.files << " |\n";
  }
  md << "\n";

  std::cout << " observability..." << std::flush;
  wire_observability_section(md, opt);
  std::cout << " sharding..." << std::flush;
  sharded_locality_section(md, opt);
  md << "See EXPERIMENTS.md for the ablation index (A1–A10) and "
        "bench/ for every generator.\n";

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "cannot write " << opt.out << "\n";
    return 1;
  }
  out << md.str();
  std::cout << " done.\nreport written to " << opt.out << "\n";
  return 0;
}
