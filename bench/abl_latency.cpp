// Ablation A6 — wire-level request latency and message overhead.
//
// Runs the message-driven swarm (encode/decode, per-hop latency with
// jitter, colocated clients) and reports GETFILE latency percentiles and
// per-request message counts as the system grows, for b = 0 and b = 2,
// plus the effect of packet loss with client retries. The direct-call
// fluid solver cannot see any of this; the protocol layer exists exactly
// for these numbers.
//
// Cells are independent swarms, so they run on the shared thread pool
// (--threads N); results are gathered in cell order, keeping stdout
// byte-identical for every thread count. --smoke runs one tiny lossless
// cell and exits nonzero unless requests were actually served with no
// undeliverable packets — the ctest wire-path gate.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"

#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/stats.hpp"

namespace {

using namespace lesslog;

struct Cell {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double msgs_per_get = 0.0;
  double fault_pct = 0.0;
  obs::Snapshot snap;  ///< the cell swarm's final metric snapshot
};

/// Tail percentile (ms) from the cell's client.get_latency histogram —
/// octave resolution, but derived from the same obs cells a deployment
/// would scrape.
double hist_pct_ms(const obs::Snapshot& snap, double pct) {
  const obs::LatencyHistogram* h = snap.histogram("client.get_latency");
  return h != nullptr ? 1000.0 * h->percentile(pct) : 0.0;
}

proto::ShardedSwarm::Config cell_config(int m, int b, double drop,
                                 std::uint64_t seed) {
  proto::ShardedSwarm::Config cfg;
  cfg.m = m;
  cfg.b = b;
  cfg.nodes = util::space_size(m);
  cfg.seed = seed;
  cfg.net.base_latency = 0.010;
  cfg.net.jitter = 0.005;
  cfg.net.drop_probability = drop;
  cfg.client.timeout = 0.25;
  cfg.client.max_retries = 5;
  return cfg;
}

/// Inserts the 32-file catalog and returns it; `rng` continues to drive
/// the request mix afterwards.
std::vector<std::pair<core::FileId, core::Pid>> build_catalog(
    proto::ShardedSwarm& swarm, int m, util::Rng& rng) {
  std::vector<std::pair<core::FileId, core::Pid>> files;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const core::FileId f{0x5EED0000ULL + i};
    const core::Pid target{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
    files.emplace_back(f, target);
    swarm.insert(f, target, core::Pid{0});
  }
  swarm.settle();
  return files;
}

Cell run_cell(int m, int b, double drop, int requests, std::uint64_t seed) {
  proto::ShardedSwarm swarm(cell_config(m, b, drop, seed));
  util::Rng rng(seed ^ 0xF00DULL);
  const auto files = build_catalog(swarm, m, rng);

  const std::int64_t msgs_before = swarm.messages_sent();
  for (int i = 0; i < requests; ++i) {
    const auto& [f, target] = files[rng.bounded(files.size())];
    const core::Pid at{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
    swarm.get(f, target, at);
  }
  swarm.settle();

  Cell cell;
  std::vector<double> lat = swarm.all_latencies();
  std::sort(lat.begin(), lat.end());
  cell.p50 = 1000.0 * util::percentile_sorted(lat, 50.0);
  cell.p99 = 1000.0 * util::percentile_sorted(lat, 99.0);
  cell.p999 = 1000.0 * util::percentile_sorted(lat, 99.9);
  cell.msgs_per_get = static_cast<double>(swarm.messages_sent() -
                                          msgs_before) /
                      requests;
  cell.fault_pct = 100.0 * static_cast<double>(swarm.total_faults()) /
                   requests;
  cell.snap = swarm.metrics_snapshot(swarm.engine(0).now());
  return cell;
}

/// One small lossless cell as a pass/fail gate: the wire path must serve
/// real traffic (peers report served requests) and every encoded packet
/// must decode and land on an attached handler (zero undeliverable).
int run_smoke(const bench::BenchArgs& args) {
  constexpr int kM = 6;
  constexpr int kRequests = 200;
  proto::ShardedSwarm swarm(cell_config(kM, 0, /*drop=*/0.0, /*seed=*/42));
  // Sample the registry through the run so the smoke's --metrics document
  // carries a time-series alongside the final totals.
  swarm.enable_metrics_sampling(/*interval=*/0.05, /*stop_at=*/2.0);
  util::Rng rng(42ULL ^ 0xF00DULL);
  const auto files = build_catalog(swarm, kM, rng);
  for (int i = 0; i < kRequests; ++i) {
    const auto& [f, target] = files[rng.bounded(files.size())];
    const core::Pid at{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(kM)))};
    swarm.get(f, target, at);
  }
  swarm.settle();
  std::int64_t served = 0;
  for (std::uint32_t p = 0; p < util::space_size(kM); ++p) {
    served += swarm.peer(core::Pid{p}).served();
  }
  const std::int64_t undeliverable = swarm.undeliverable();
  const std::int64_t faults = swarm.total_faults();
  const bool ok = served > 0 && undeliverable == 0 && faults == 0;
  std::cout << "wire smoke: requests=" << kRequests << " served=" << served
            << " undeliverable=" << undeliverable << " faults=" << faults
            << " -> " << (ok ? "PASS" : "FAIL") << "\n";
  const obs::TimeSeries& series = swarm.metrics_series();
  const int metrics_rc = bench::emit_metrics(
      args, "abl_latency", 42, swarm.metrics_snapshot(swarm.engine(0).now()),
      series.empty() ? nullptr : &series);
  return (ok && metrics_rc == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lesslog;
  const auto t0 = std::chrono::steady_clock::now();
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  if (args.smoke) return run_smoke(args);
  const int requests = args.quick ? 500 : 4000;
  const std::vector<int> widths = args.quick ? std::vector<int>{6, 8}
                                             : std::vector<int>{4, 6, 8, 10};
  const std::vector<double> drops{0.0, 0.1};

  std::cout << "== Ablation A6: wire-level GETFILE latency (10 ms links "
               "+ 0-5 ms jitter) ==\n"
            << requests << " requests per cell, 32-file catalog\n\n";

  // Flatten drop x m x {b=0, b=2} into one independent cell list.
  struct Key {
    double drop;
    int m;
    int b;
  };
  std::vector<Key> keys;
  for (const double drop : drops) {
    for (const int m : widths) {
      keys.push_back({drop, m, 0});
      keys.push_back({drop, m, 2});
    }
  }
  const std::vector<Cell> cells = bench::run_cells_parallel(
      args.threads, keys.size(), [&](std::size_t i) {
        const Key& k = keys[i];
        return run_cell(k.m, k.b, k.drop, requests, 42);
      });

  std::vector<bench::WireRow> rows;
  std::size_t next = 0;
  for (const double drop : drops) {
    std::vector<double> xs;
    for (const int m : widths) xs.push_back(static_cast<double>(m));
    sim::FigureData fig(
        "A6 latency/overhead (loss " +
            std::to_string(static_cast<int>(drop * 100)) + "%)",
        "m (N = 2^m)", xs);
    std::vector<double> p50_b0;
    std::vector<double> p99_b0;
    std::vector<double> msgs_b0;
    std::vector<double> p50_b2;
    std::vector<double> faults;
    for (const int m : widths) {
      const Cell& b0 = cells[next++];
      const Cell& b2 = cells[next++];
      p50_b0.push_back(b0.p50);
      p99_b0.push_back(b0.p99);
      msgs_b0.push_back(b0.msgs_per_get);
      p50_b2.push_back(b2.p50);
      faults.push_back(b0.fault_pct);
      for (const auto* c : {&b0, &b2}) {
        rows.push_back(bench::WireRow{
            "abl_latency",
            "drop=" + std::to_string(static_cast<int>(drop * 100)) +
                "%,m=" + std::to_string(m) +
                ",b=" + std::to_string(c == &b0 ? 0 : 2),
            {{"p50_ms", c->p50},
             {"p99_ms", c->p99},
             {"p999_ms", c->p999},
             {"p99_hist_ms", hist_pct_ms(c->snap, 99.0)},
             {"p999_hist_ms", hist_pct_ms(c->snap, 99.9)},
             {"msgs_per_get", c->msgs_per_get},
             {"fault_pct", c->fault_pct}}});
      }
    }
    fig.add_series("p50 ms (b=0)", std::move(p50_b0));
    fig.add_series("p99 ms (b=0)", std::move(p99_b0));
    fig.add_series("p50 ms (b=2)", std::move(p50_b2));
    fig.add_series("msgs/get (b=0)", std::move(msgs_b0));
    fig.add_series("faults % (b=0)", std::move(faults));
    bench::emit(fig, args);

    bench::check(fig.roughly_increasing("p50 ms (b=0)", 5.0),
                 "latency grows ~logarithmically with N");
    // Worst case per leg: (m+2) messages at 15 ms each; under loss the
    // client may burn its full retry budget (max_retries x 250 ms timeout)
    // before the successful leg.
    const double budget =
        (static_cast<double>(widths.back()) + 2.0) * 15.0 +
        (drop > 0.0 ? 5.0 * 250.0 + 100.0 : 0.5);
    bench::check(fig.find("p99 ms (b=0)")->values.back() < budget,
                 "p99 bounded by hop latency plus the client retry budget");
    if (drop == 0.0) {
      bench::check(fig.find("faults % (b=0)")->values.back() == 0.0,
                   "no faults on a lossless network");
    } else {
      bench::check(fig.find("faults % (b=0)")->values.back() < 2.0,
                   "client retries mask 10% packet loss (<2% faults)");
    }
  }
  if (args.json.has_value()) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    bench::write_wire_json(*args.json, args, rows, wall_ms);
  }
  // Swarm-wide totals across every cell, merged in cell-index order so
  // the document is identical for every --threads value.
  obs::Snapshot merged;
  for (const Cell& c : cells) merged.merge_from(c.snap);
  return bench::emit_metrics(args, "abl_latency", 42, merged);
}
