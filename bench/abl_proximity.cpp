// Ablation A10 — the cost of proximity-obliviousness.
//
// The paper's related work (Plaxton/OceanStore) replicates toward
// *geographically close* copies using access logs; LessLog deliberately
// ignores proximity to stay logless. This ablation puts a number on that
// trade: peers live on a unit square with distance-proportional link
// latency, and we measure the *stretch* of GETFILE round trips — observed
// latency over the ideal direct round trip to the serving copy — before
// and after LessLog replication spreads copies. Each replica count is an
// independent cell run on the shared thread pool (--threads N), gathered
// in order so stdout is byte-identical for every thread count.
#include <chrono>

#include "bench_common.hpp"

#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/stats.hpp"

namespace {

using namespace lesslog;

struct StretchStats {
  double mean = 0.0;
  double p95 = 0.0;
  double mean_latency_ms = 0.0;
  obs::Snapshot snap;  ///< the cell swarm's final metric snapshot
};

StretchStats measure_stretch(int m, int replicas_per_file,
                             std::uint64_t seed, int probes) {
  proto::ShardedSwarm::Config cfg;
  cfg.m = m;
  cfg.b = 0;
  cfg.nodes = util::space_size(m);
  cfg.seed = seed;
  cfg.net.base_latency = 0.001;
  cfg.net.jitter = 0.0;
  cfg.geo = proto::Geography{
      .slots = util::space_size(m), .seed = seed, .latency_per_unit = 0.08};
  proto::ShardedSwarm swarm(cfg);

  // A handful of files, optionally pre-replicated by the LessLog rule.
  std::vector<core::FileId> files;
  for (std::uint64_t i = 0; i < 16; ++i) {
    files.push_back(swarm.insert_named(0xA10'0000ULL + seed * 100 + i,
                                       core::Pid{0}));
  }
  swarm.settle();
  for (const core::FileId f : files) {
    const core::Pid target = swarm.peer(core::Pid{0}).target_of(f);
    core::Pid holder = target;
    std::vector<core::Pid> placed{target};
    for (int r = 0; r < replicas_per_file; ++r) {
      const auto next = swarm.replicate(
          f, target, holder, [&placed](core::Pid p) {
            return std::find(placed.begin(), placed.end(), p) !=
                   placed.end();
          });
      if (!next.has_value()) break;
      placed.push_back(*next);
    }
    swarm.settle();
  }

  util::Rng rng(seed ^ 0x57);
  std::vector<double> stretches;
  util::Accumulator latency;
  int done = 0;
  while (done < probes) {
    const core::FileId f = files[rng.bounded(files.size())];
    const core::Pid target = swarm.peer(core::Pid{0}).target_of(f);
    const core::Pid at{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
    proto::GetResult result;
    core::Pid server{};
    bool got_server = false;
    swarm.get(f, target, at, [&](const proto::GetResult& r) {
      result = r;
      got_server = r.ok;
    });
    swarm.settle();
    if (!got_server || result.hops == 0) continue;  // local hits: stretch 1
    // Reconstruct the server: re-run the query; the serving peer is the
    // one whose counter moved. Cheaper: ideal = direct round trip to the
    // *closest* copy — the fair Plaxton-style yardstick.
    double best_direct = 1e18;
    for (std::uint32_t p = 0; p < util::space_size(m); ++p) {
      if (swarm.peer(core::Pid{p}).store().has(f)) {
        best_direct = std::min(
            best_direct,
            2.0 * swarm.network(0).link_latency(at, core::Pid{p}));
      }
    }
    (void)server;
    if (best_direct < 1e-6) continue;
    stretches.push_back(result.latency / best_direct);
    latency.add(result.latency * 1000.0);
    ++done;
  }
  StretchStats out;
  out.mean = util::percentile(stretches, 50.0);
  out.p95 = util::percentile(stretches, 95.0);
  out.mean_latency_ms = latency.mean();
  out.snap = swarm.metrics_snapshot(swarm.engine(0).now());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lesslog;
  const auto t0 = std::chrono::steady_clock::now();
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const int m = args.quick ? 6 : 8;
  const int probes = args.quick ? 200 : 1000;

  std::cout << "== Ablation A10: proximity stretch of GETFILE ==\n"
            << "unit-square topology, 80 ms/unit links, N = "
            << util::space_size(m)
            << "; stretch = observed RTT / direct RTT to the closest copy\n\n";

  const std::vector<double> replica_counts{0.0, 2.0, 8.0, 32.0};
  sim::FigureData fig("A10 stretch vs pre-placed replicas/file",
                      "replicas/file", replica_counts);
  const std::vector<StretchStats> cells = bench::run_cells_parallel(
      args.threads, replica_counts.size(), [&](std::size_t i) {
        return measure_stretch(m, static_cast<int>(replica_counts[i]), 7,
                               probes);
      });
  std::vector<double> median;
  std::vector<double> p95;
  std::vector<double> lat;
  std::vector<bench::WireRow> rows;
  for (std::size_t i = 0; i < replica_counts.size(); ++i) {
    const StretchStats& s = cells[i];
    median.push_back(s.mean);
    p95.push_back(s.p95);
    lat.push_back(s.mean_latency_ms);
    rows.push_back(bench::WireRow{
        "abl_proximity",
        "replicas=" + std::to_string(static_cast<int>(replica_counts[i])),
        {{"median_stretch", s.mean},
         {"p95_stretch", s.p95},
         {"mean_latency_ms", s.mean_latency_ms}}});
  }
  fig.add_series("median stretch", std::move(median));
  fig.add_series("p95 stretch", std::move(p95));
  fig.add_series("mean latency ms", std::move(lat));
  bench::emit(fig, args, /*precision=*/2);

  bench::check(fig.find("median stretch")->values.front() >= 1.0,
               "stretch is always >= 1 (routing cannot beat the direct "
               "path)");
  bench::check(fig.find("mean latency ms")->values.back() <
                   fig.find("mean latency ms")->values.front(),
               "replication reduces absolute latency (copies land closer "
               "to requesters)");
  std::cout << "\nReading: LessLog pays a proximity-stretch factor (it is "
               "logless and\nlocation-oblivious); spreading replicas "
               "shrinks absolute latency anyway\nbecause the tree walk "
               "gets shorter and copies densify. Plaxton-style\nsystems "
               "buy stretch ~1 at the price of the access logging LessLog "
               "avoids.\n";
  if (args.json.has_value()) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    bench::write_wire_json(*args.json, args, rows, wall_ms, /*seed=*/7);
  }
  obs::Snapshot merged;
  for (const StretchStats& s : cells) merged.merge_from(s.snap);
  return bench::emit_metrics(args, "abl_proximity", 7, merged);
}
