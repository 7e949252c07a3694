// Ablation A8 — sharded-engine scaling: wall-clock of the same swarm
// workload as the shard count grows, plus the PID→shard map comparison.
//
// Every cell runs an identical deterministic workload (zero jitter, zero
// loss, fixed request pattern) on a proto::ShardedSwarm with S engine
// shards, so the *outcome* of a cell is S-independent by construction —
// the sweep isolates pure execution cost: window/barrier overhead versus
// parallel shard execution. speedup is wall(S=1)/wall(S) per m. On a
// single-core host the expected curve is flat (~1x, barrier overhead
// visible); the determinism claims are what the ctest gate enforces.
// --m 20 runs the full 2^20-slot (1M-peer) configuration.
//
// The map section reruns one cell under a clustered geography with both
// ShardMap policies and reports the cross-shard message fraction
// (net.cross_shard_msgs / (cross + intra)): the XOR-subtree locality map
// must beat the contiguous-range map, because lookup/forward traffic
// follows tree edges and the subtree map keeps every small subtree on
// one shard.
//
// --smoke runs one small m in-process at S = 1 and S = 4 and exits
// nonzero unless the outcomes (every latency bit, message counters,
// served totals, metric snapshot) are byte-identical — the scale_smoke
// ctest gate. --shards N restricts the sweep to {1, N} ({N} alone under
// --quick, which is what the m=20 wall-gate ctest runs).
//
// Every sweep ends by printing the process's peak RSS and the bytes per
// PID it implies at the widest m; --max-rss-mb turns the peak into a
// gate (the m=20 ctest runs with a 2 GB ceiling).
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"

#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/stats.hpp"

namespace {

using namespace lesslog;

proto::ShardedSwarm::Config cell_config(int m, std::size_t shards) {
  proto::ShardedSwarm::Config cfg;
  cfg.m = m;
  cfg.b = 0;
  cfg.nodes = util::space_size(m);
  cfg.seed = 42;
  cfg.shards = shards;
  cfg.net.base_latency = 0.010;  // the conservative lookahead
  cfg.net.jitter = 0.0;          // deterministic: no per-hop RNG draw
  cfg.net.drop_probability = 0.0;
  cfg.client.timeout = 0.25;  // max path (m+2)*10ms < timeout: no retries
  return cfg;
}

/// The clustered-geography variant for the map comparison: one blob of
/// PID-contiguous coordinates per shard, so the range map aligns shards
/// with clusters (distant regions, wide adaptive windows) while the
/// subtree map interleaves them (base-latency windows, minimal
/// cross-shard tree traffic).
proto::ShardedSwarm::Config map_config(int m, std::size_t shards,
                                       proto::ShardMap::Kind kind) {
  proto::ShardedSwarm::Config cfg = cell_config(m, shards);
  cfg.shard_map = kind;
  proto::Geography geo;
  geo.seed = 42;
  geo.clusters = static_cast<std::uint32_t>(shards);
  cfg.geo = geo;
  // Geographic links stretch the longest path; keep it under the client
  // timeout so the workload still sees zero retries.
  cfg.client.timeout = 2.0;
  return cfg;
}

struct Cell {
  double wall_ms = 0.0;
  std::int64_t events = 0;
  double p50_ms = 0.0;
  double msgs_per_get = 0.0;
  double cross_frac = 0.0;
  std::vector<double> latencies;
  std::int64_t sent = 0;
  std::int64_t served = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Drops the shard-boundary split from a counter snapshot: it is a
/// property of the deployment (S, map), not of the workload, so
/// cross-S identity checks must compare everything else.
std::vector<std::pair<std::string, std::uint64_t>> strip_shard_counters(
    std::vector<std::pair<std::string, std::uint64_t>> counters) {
  std::erase_if(counters, [](const auto& kv) {
    return kv.first == "net.cross_shard_msgs" ||
           kv.first == "net.intra_shard_msgs";
  });
  return counters;
}

/// Catalog + request mix are drawn from a fixed-seed RNG *outside* the
/// swarm, so every (m, S) cell at the same m issues the same operations.
///
/// locality_bits = 0 draws issuers uniformly. k > 0 draws each issuer
/// inside the target's 2^k-peer deep subtree (same low m-k bits, random
/// high k bits — XOR-tree-adjacent PIDs share low bits), the paper's
/// locality workload: requests resolve within the smallest common
/// subtree, so the whole forwarding path flips only high bits.
Cell run_cell(const proto::ShardedSwarm::Config& cfg,
              int locality_bits = 0) {
  proto::ShardedSwarm swarm(cfg);
  util::Rng rng(42ULL ^ 0x5CA1EULL);
  const std::uint32_t nodes = cfg.nodes;
  std::vector<std::pair<core::FileId, core::Pid>> files;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const core::FileId f{0x5EED0000ULL + i};
    const core::Pid target{static_cast<std::uint32_t>(rng.bounded(nodes))};
    files.emplace_back(f, target);
    swarm.insert(f, target, core::Pid{0});
  }
  swarm.settle();

  const int requests = static_cast<int>(2 * nodes);
  const std::int64_t msgs_before = swarm.messages_sent();
  for (int i = 0; i < requests; ++i) {
    const auto& [f, target] = files[rng.bounded(files.size())];
    core::Pid at{static_cast<std::uint32_t>(rng.bounded(nodes))};
    if (locality_bits > 0) {
      const auto high = static_cast<std::uint32_t>(
          rng.bounded(std::uint64_t{1} << locality_bits));
      at = core::Pid{target.value() ^ (high << (cfg.m - locality_bits))};
    }
    swarm.get(f, target, at);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t events = swarm.settle();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  Cell cell;
  cell.wall_ms = wall_ms;
  cell.events = events;
  cell.latencies = swarm.all_latencies();
  std::vector<double> sorted = cell.latencies;
  std::sort(sorted.begin(), sorted.end());
  cell.p50_ms = 1000.0 * util::percentile_sorted(sorted, 50.0);
  cell.msgs_per_get =
      static_cast<double>(swarm.messages_sent() - msgs_before) / requests;
  cell.cross_frac = swarm.cross_shard_fraction();
  cell.sent = swarm.messages_sent();
  for (std::uint32_t p = 0; p < nodes; ++p) {
    cell.served += swarm.peer(core::Pid{p}).served();
  }
  cell.counters = swarm.metrics_snapshot().counters;
  return cell;
}

/// The ctest gate: one small m, S = 1 versus S = 4, byte-identical
/// outcomes (modulo the shard-boundary counters, which exist only to
/// measure the deployment). The swarm's parallel windows must not
/// perturb a single latency bit, message count, or workload metric cell.
int run_smoke() {
  constexpr int kM = 8;
  const Cell serial = run_cell(cell_config(kM, 1));
  const Cell sharded = run_cell(cell_config(kM, 4));
  const bool latencies_ok = serial.latencies == sharded.latencies;
  const bool counters_ok = strip_shard_counters(serial.counters) ==
                           strip_shard_counters(sharded.counters);
  const bool ok = latencies_ok && counters_ok &&
                  serial.sent == sharded.sent &&
                  serial.served == sharded.served && serial.served > 0 &&
                  serial.events == sharded.events;
  std::cout << "scale smoke: m=" << kM << " gets="
            << serial.latencies.size() << " served=" << serial.served
            << " events=" << serial.events
            << " latencies_identical=" << (latencies_ok ? "yes" : "NO")
            << " snapshots_identical=" << (counters_ok ? "yes" : "NO")
            << " -> " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lesslog;
  const auto t0 = std::chrono::steady_clock::now();
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  if (args.smoke) return run_smoke();
  const double startup_rss_mb = bench::proc_status_mb("VmRSS:");

  const std::vector<int> widths =
      args.m.has_value() ? std::vector<int>{*args.m}
      : args.quick       ? std::vector<int>{10, 12}
                         : std::vector<int>{10, 12, 14, 16, 20};
  std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  if (args.shards > 1) {
    // --quick with an explicit shard count is the wall-gate shape: the
    // one parallel cell alone, no serial rerun (at m = 20 the S = 1
    // pass would dominate the gate's budget without testing anything
    // the scale_smoke gate doesn't).
    shard_counts = args.quick
                       ? std::vector<std::size_t>{
                             static_cast<std::size_t>(args.shards)}
                       : std::vector<std::size_t>{
                             1, static_cast<std::size_t>(args.shards)};
  } else if (args.quick) {
    shard_counts = {1, 2, 4};
  }

  std::cout << "== Ablation A8: sharded-engine scaling (10 ms lookahead, "
               "deterministic workload) ==\n"
            << "2 requests per node, 64-file catalog, seed 42\n\n";

  std::vector<bench::WireRow> rows;
  for (const int m : widths) {
    sim::FigureData fig("A8 scale m=" + std::to_string(m), "shards",
                        [&shard_counts] {
                          std::vector<double> xs;
                          for (const std::size_t s : shard_counts) {
                            xs.push_back(static_cast<double>(s));
                          }
                          return xs;
                        }());
    std::vector<double> wall;
    std::vector<double> speedup;
    double serial_wall = 0.0;
    bool identical = true;
    const Cell* base = nullptr;
    std::vector<Cell> cells;
    cells.reserve(shard_counts.size());
    for (const std::size_t s : shard_counts) {
      cells.push_back(run_cell(cell_config(m, s)));
      const Cell& cell = cells.back();
      if (s == shard_counts.front()) {
        serial_wall = cell.wall_ms;
        base = &cells.back();
      } else if (base != nullptr) {
        identical = identical && cell.latencies == base->latencies &&
                    strip_shard_counters(cell.counters) ==
                        strip_shard_counters(base->counters) &&
                    cell.events == base->events;
      }
      wall.push_back(cell.wall_ms);
      speedup.push_back(cell.wall_ms > 0.0 ? serial_wall / cell.wall_ms
                                           : 0.0);
      rows.push_back(bench::WireRow{
          "abl_scale",
          "m=" + std::to_string(m) + ",S=" + std::to_string(s),
          {{"wall_ms", cell.wall_ms},
           {"speedup", speedup.back()},
           {"events", static_cast<double>(cell.events)},
           {"p50_ms", cell.p50_ms},
           {"msgs_per_get", cell.msgs_per_get},
           {"cross_frac", cell.cross_frac}}});
    }
    fig.add_series("wall ms", std::move(wall));
    fig.add_series("speedup vs S=1", std::move(speedup));
    bench::emit(fig, args, /*precision=*/2);
    if (shard_counts.size() > 1) {
      bench::check(identical,
                   "outcome (latencies, events, metrics) is S-independent");
    }
  }

  // -- PID→shard map comparison under a clustered geography ------------
  // One blob per shard, tree-local request mix (issuers inside the
  // target's 64-peer subtree). Lookup paths then flip only high PID
  // bits: the subtree map (p mod S, keyed on low bits) keeps every hop
  // on one shard, while the range map (p / block, keyed on high bits)
  // crosses on nearly every hop. On *uniform* traffic the two maps tie
  // — a lookup flips high bits first and low bits last, crossing s/2
  // expected boundaries under either map (see the main sweep's
  // cross_frac column) — so the locality workload is where the mapping
  // choice matters, exactly the paper's locality scenario.
  if (!args.m.has_value() || *args.m <= 14) {
    const int m_map = args.quick ? 10 : 12;
    const std::size_t s_map =
        args.shards > 1 ? static_cast<std::size_t>(args.shards) : 4;
    constexpr int kLocalityBits = 6;  // 64-peer issuer subtrees
    std::cout << "\n-- map comparison: clustered geography, tree-local "
                 "requests, m="
              << m_map << ", S=" << s_map << " --\n";
    double fracs[2] = {0.0, 0.0};
    const proto::ShardMap::Kind kinds[2] = {proto::ShardMap::Kind::kRange,
                                            proto::ShardMap::Kind::kSubtree};
    for (int k = 0; k < 2; ++k) {
      const Cell cell =
          run_cell(map_config(m_map, s_map, kinds[k]), kLocalityBits);
      fracs[k] = cell.cross_frac;
      const char* name = proto::shard_map_name(kinds[k]);
      std::cout << "map=" << name << " cross_frac=" << fracs[k]
                << " wall_ms=" << cell.wall_ms << " events=" << cell.events
                << "\n";
      rows.push_back(bench::WireRow{
          "abl_scale",
          "m=" + std::to_string(m_map) + ",S=" + std::to_string(s_map) +
              ",geo=clustered,local,map=" + name,
          {{"wall_ms", cell.wall_ms},
           {"events", static_cast<double>(cell.events)},
           {"cross_frac", cell.cross_frac}}});
    }
    bench::check(fracs[1] < fracs[0],
                 "subtree locality map crosses shards less than the range "
                 "map on tree-local traffic");
  }

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (args.json.has_value()) {
    bench::write_wire_json(*args.json, args, rows, wall_ms);
  }
  // Cells run one at a time and free their swarm, so the peak belongs to
  // the widest m; its growth over start-up, per PID, is the per-peer
  // footprint (Peer, Client, store, in-flight events, latency logs).
  const int widest = *std::max_element(widths.begin(), widths.end());
  const double peak_mb = bench::proc_status_mb("VmHWM:");
  std::cout << "\npeak RSS " << peak_mb << " MB; "
            << (peak_mb - startup_rss_mb) * 1024.0 * 1024.0 /
                   static_cast<double>(util::space_size(widest))
            << " bytes per PID at m=" << widest << " (peak minus the "
            << startup_rss_mb << " MB start-up RSS)\n";
  const int wall_gate = bench::enforce_wall_gate(args, wall_ms);
  const int rss_gate = bench::enforce_rss_gate(args);
  return wall_gate != 0 ? wall_gate : rss_gate;
}
