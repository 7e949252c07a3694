// lesslog_cli — run LessLog experiments and inspect lookup trees from the
// command line without writing code.
//
//   lesslog_cli experiment [--m 10] [--b 0] [--rate 10000] [--capacity 100]
//                          [--workload uniform|locality] [--dead 0.2]
//                          [--policy lesslog|random|logbased] [--seed 42]
//   lesslog_cli catalog    [--m 10] [--files 64] [--zipf 0.8] [--rate 16000]
//                          [--capacity 100] [--seed 42]
//   lesslog_cli churn      [--m 8] [--nodes 200] [--files 64] [--b 0]
//                          [--duration 600] [--requests 200] [--events 1.0]
//                          [--seed 7]
//   lesslog_cli tree       --m 4 --root 4 [--dead 0,5] [--route 8]
//   lesslog_cli metrics    [--m 6] [--requests 200] [--drop 0.0] [--seed 42]
//                          [--interval 0.05] [--format table|json|csv]
//                          [--out path]
//   lesslog_cli chaos      [--m 6] [--b 2] [--nodes 40] [--seed 1]
//                          [--epochs 5] [--epoch-length 30]
//                          [--intensity 0.5] [--files 48] [--rate 20]
//                          [--broken 1] [--artifact path] [--replay path]
//   lesslog_cli serve      --hosts 'serve:0-31:127.0.0.1:4701;...' --self 0
//                          [--m 6] [--b 2] [--seed 1] [--duration 0]
//                          [--stats-out path]
//
// Every subcommand prints a human-readable report; `tree` renders the
// paper's structures (children lists, routes, stand-ins) for any
// configuration, which makes it a handy teaching/debugging tool;
// `metrics` runs a packet-level swarm with registry sampling on and
// dumps the full observability document (counters, gauges, latency
// percentiles, time-series); `chaos` runs the deterministic
// fault-injection driver (docs/ROBUSTNESS.md) and exits nonzero on any
// invariant violation — `--replay` re-runs a captured artifact instead;
// `serve` runs one host-map entry's PID range as a real process over the
// epoll socket transport (docs/TRANSPORT.md) — drive it with
// lesslog_loadgen.
#include <charconv>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "lesslog/baseline/policy.hpp"
#include "lesslog/chaos/driver.hpp"
#include "lesslog/chaos/replay.hpp"
#include "lesslog/core/snapshot.hpp"
#include "lesslog/core/system.hpp"
#include "lesslog/net/serve.hpp"
#include "lesslog/obs/export.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/sim/catalog.hpp"
#include "lesslog/sim/churn.hpp"
#include "lesslog/sim/experiment.hpp"
#include "lesslog/util/table.hpp"

namespace {

using namespace lesslog;

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("expected --flag value pairs, got: " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  [[nodiscard]] double get(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

  [[nodiscard]] int get(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoi(it->second);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

sim::PlacementFn policy_by_name(const std::string& name) {
  if (name == "lesslog") return baseline::lesslog_policy();
  if (name == "random") return baseline::random_policy();
  if (name == "logbased") return baseline::logbased_policy();
  throw std::runtime_error("unknown policy: " + name);
}

int cmd_experiment(const Flags& flags) {
  sim::ExperimentConfig cfg;
  cfg.m = flags.get("m", 10);
  cfg.b = flags.get("b", 0);
  cfg.total_rate = flags.get("rate", 10000.0);
  cfg.capacity = flags.get("capacity", 100.0);
  cfg.dead_fraction = flags.get("dead", 0.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get("seed", 42));
  const std::string workload = flags.get("workload", std::string("uniform"));
  cfg.workload = workload == "locality" ? sim::WorkloadKind::kLocality
                                        : sim::WorkloadKind::kUniform;
  const std::string policy = flags.get("policy", std::string("lesslog"));

  const sim::ExperimentResult r =
      sim::run_replication_experiment(cfg, policy_by_name(policy));
  std::cout << "policy=" << policy << " workload=" << workload
            << " m=" << cfg.m << " b=" << cfg.b << " rate=" << cfg.total_rate
            << " capacity=" << cfg.capacity << " dead=" << cfg.dead_fraction
            << " seed=" << cfg.seed << "\n"
            << "  replicas created : " << r.replicas_created << "\n"
            << "  balanced         : " << (r.balanced ? "yes" : "no")
            << (r.irreducible_overload ? " (irreducible local overload)"
                                       : "")
            << "\n"
            << "  final max load   : " << r.final_max_load << " req/s\n"
            << "  mean lookup hops : " << r.mean_hops << "\n"
            << "  Jain fairness    : " << r.fairness << "\n"
            << "  live nodes       : " << r.live_nodes << "\n";
  return r.balanced ? 0 : 1;
}

int cmd_catalog(const Flags& flags) {
  sim::CatalogConfig cfg;
  cfg.m = flags.get("m", 10);
  cfg.b = flags.get("b", 0);
  cfg.files = static_cast<std::uint32_t>(flags.get("files", 64));
  cfg.zipf_s = flags.get("zipf", 0.8);
  cfg.total_rate = flags.get("rate", 16000.0);
  cfg.capacity = flags.get("capacity", 100.0);
  cfg.dead_fraction = flags.get("dead", 0.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get("seed", 42));

  const sim::CatalogResult r =
      sim::run_catalog_experiment(cfg, baseline::lesslog_policy());
  std::cout << "catalog: " << cfg.files << " files, zipf " << cfg.zipf_s
            << ", " << cfg.total_rate << " req/s\n"
            << "  replicas created : " << r.replicas_created << "\n"
            << "  balanced         : " << (r.balanced ? "yes" : "no") << "\n"
            << "  total copies     : " << r.total_copies << "\n"
            << "  fairness         : " << r.fairness << "\n"
            << "  hottest 8 files  : ";
  for (std::size_t i = 0; i < 8 && i < r.replicas_by_rank.size(); ++i) {
    std::cout << r.replicas_by_rank[i] << " ";
  }
  std::cout << "replicas\n";
  return r.balanced ? 0 : 1;
}

int cmd_churn(const Flags& flags) {
  sim::ChurnConfig cfg;
  cfg.m = flags.get("m", 8);
  cfg.b = flags.get("b", 0);
  cfg.initial_nodes = static_cast<std::uint32_t>(flags.get("nodes", 200));
  cfg.min_nodes = cfg.initial_nodes / 3;
  cfg.files = static_cast<std::uint32_t>(flags.get("files", 64));
  cfg.duration = flags.get("duration", 600.0);
  cfg.request_rate = flags.get("requests", 200.0);
  const double events = flags.get("events", 1.0);
  cfg.join_rate = events / 2.0;
  cfg.leave_rate = events / 4.0;
  cfg.fail_rate = events / 4.0;
  cfg.seed = static_cast<std::uint64_t>(flags.get("seed", 7));

  const sim::ChurnResult r = sim::run_churn(cfg);
  std::cout << "churn: " << cfg.initial_nodes << " nodes, " << cfg.duration
            << "s, " << events << " membership events/s, b=" << cfg.b << "\n"
            << "  requests         : " << r.requests << "\n"
            << "  faults           : " << r.faults << " ("
            << 100.0 * r.fault_fraction() << "%)\n"
            << "  joins/leaves/fail: " << r.joins << "/" << r.leaves << "/"
            << r.fails << "\n"
            << "  files lost       : " << r.files_lost << "\n"
            << "  mean hops        : " << r.mean_hops << "\n"
            << "  maintenance msgs : " << r.maintenance_messages << "\n";
  return 0;
}

std::vector<std::uint32_t> parse_list(const std::string& csv) {
  std::vector<std::uint32_t> out;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    out.push_back(static_cast<std::uint32_t>(std::stoul(item)));
  }
  return out;
}

int cmd_tree(const Flags& flags) {
  const int m = flags.get("m", 4);
  const auto root = static_cast<std::uint32_t>(flags.get("root", 0));
  if (!util::valid_width(m) || !util::fits(root, m)) {
    throw std::runtime_error("invalid --m/--root");
  }
  const core::LookupTree tree(m, core::Pid{root});
  util::StatusWord live(m, util::space_size(m));
  if (flags.has("dead")) {
    for (const std::uint32_t d : parse_list(flags.get("dead", std::string()))) {
      live.set_dead(d);
    }
  }

  std::cout << "lookup tree of P(" << root << "), m=" << m << " ("
            << live.live_count() << "/" << util::space_size(m)
            << " nodes live)\n\n";
  util::Table table({"PID", "VID", "depth", "offspring", "children list"});
  for (std::uint32_t p = 0; p < util::space_size(m); ++p) {
    if (!live.is_live(p)) continue;
    std::ostringstream kids;
    for (const core::Pid c :
         core::children_list(tree, core::Pid{p}, live)) {
      kids << "P(" << c.value() << ") ";
    }
    table.add_row({std::string("P(") + std::to_string(p) + ")",
                   core::to_binary(tree.vid_of(core::Pid{p}), m),
                   static_cast<std::int64_t>(tree.depth(core::Pid{p})),
                   static_cast<std::int64_t>(
                       tree.offspring_count(core::Pid{p})),
                   kids.str()});
  }
  std::cout << table.render();

  const auto holder = core::insertion_target(tree, live);
  std::cout << "\ninsertion target (FINDLIVENODE(r,r)): "
            << (holder ? "P(" + std::to_string(holder->value()) + ")"
                       : std::string("none"))
            << "\n";

  if (flags.has("route")) {
    const auto from = static_cast<std::uint32_t>(flags.get("route", 0));
    const core::RouteResult r = core::route_get(
        tree, core::Pid{from}, live,
        [&holder](core::Pid p) { return holder && p == *holder; });
    std::cout << "route from P(" << from << "):";
    for (const core::Pid p : r.path) std::cout << " P(" << p.value() << ")";
    std::cout << "  (" << r.hops() << " hops"
              << (r.used_fallback ? ", stand-in fallback" : "") << ")\n";
  }
  return 0;
}

int cmd_inspect(const Flags& flags) {
  const std::string path = flags.get("snapshot", std::string());
  if (path.empty()) throw std::runtime_error("inspect needs --snapshot");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  const core::System sys = core::load_snapshot(in);

  std::cout << "snapshot: " << path << "\n"
            << "  m=" << sys.width() << " (" << util::space_size(sys.width())
            << " slots), b=" << sys.fault_bits() << ", payload "
            << sys.config().payload_size << " B/file\n"
            << "  live nodes : " << sys.live_count() << "\n"
            << "  files      : " << sys.files().size() << " ("
            << sys.lost_files().size() << " lost)\n"
            << "  counters   : " << sys.lookup_messages() << " lookup, "
            << sys.maintenance_messages() << " maintenance, "
            << sys.faults() << " faults\n";
  const core::System::IntegrityReport report = sys.verify_integrity();
  std::cout << "  integrity  : "
            << (report.clean() ? "clean" : "VIOLATIONS") << " ("
            << report.corrupt.size() << " corrupt, " << report.stale.size()
            << " stale)\n";

  std::size_t copies = 0;
  std::size_t replicas = 0;
  for (const core::FileId f : sys.files()) {
    for (const core::Pid h : sys.holders(f)) {
      ++copies;
      const auto info = sys.node(h).store().info(f);
      if (info.has_value() && info->kind == core::CopyKind::kReplica) {
        ++replicas;
      }
    }
  }
  std::cout << "  copies     : " << copies << " total, " << replicas
            << " replicas\n";
  return report.clean() ? 0 : 1;
}

int cmd_metrics(const Flags& flags) {
  const int m = flags.get("m", 6);
  const int requests = flags.get("requests", 200);
  const double interval = flags.get("interval", 0.05);
  const std::string format = flags.get("format", std::string("table"));
  if (format != "table" && format != "json" && format != "csv") {
    throw std::runtime_error("--format must be table, json, or csv");
  }

  proto::ShardedSwarm::Config cfg;
  cfg.m = m;
  cfg.b = flags.get("b", 0);
  cfg.nodes = util::space_size(m);
  cfg.seed = static_cast<std::uint64_t>(flags.get("seed", 42));
  cfg.net.base_latency = 0.010;
  cfg.net.jitter = 0.005;
  cfg.net.drop_probability = flags.get("drop", 0.0);
  cfg.client.timeout = 0.25;
  cfg.client.max_retries = 5;
  proto::ShardedSwarm swarm(cfg);

  util::Rng rng(cfg.seed ^ 0xF00DULL);
  std::vector<std::pair<core::FileId, core::Pid>> files;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const core::FileId f{0x5EED0000ULL + i};
    const core::Pid target{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
    files.emplace_back(f, target);
    swarm.insert(f, target, core::Pid{0});
  }
  swarm.settle();

  // Sample across the request phase: requests are spread over one second
  // of simulated time, so the series shows traffic ramping through the
  // swarm rather than a single burst.
  const double window = 1.0;
  swarm.enable_metrics_sampling(
      interval, swarm.engine(0).now() + window + 1.0);
  for (int i = 0; i < requests; ++i) {
    const auto& [f, target] = files[rng.bounded(files.size())];
    const core::Pid at{
        static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
    const double delay = window * static_cast<double>(i) / requests;
    swarm.engine(0).after_fixed(
        delay, [&swarm, f = f, target = target, at] {
          swarm.get(f, target, at);
        });
  }
  swarm.settle();

  const obs::Snapshot snap = swarm.metrics_snapshot(swarm.engine(0).now());
  const obs::TimeSeries& series = swarm.metrics_series();

  std::ostream* out = &std::cout;
  std::ofstream file;
  if (flags.has("out")) {
    file.open(flags.get("out", std::string()));
    if (!file) {
      throw std::runtime_error("cannot write " +
                               flags.get("out", std::string()));
    }
    out = &file;
  }

  if (format == "json") {
    std::ostringstream doc;
    obs::write_metrics_json(doc, snap, "lesslog_cli", cfg.seed, &series);
    const std::string violation = obs::validate_metrics_json(doc.str());
    if (!violation.empty()) {
      std::cerr << "internal error: metrics document invalid: " << violation
                << "\n";
      return 1;
    }
    *out << doc.str();
    return 0;
  }
  if (format == "csv") {
    obs::write_metrics_csv(*out, snap, "lesslog_cli", cfg.seed, &series);
    return 0;
  }

  *out << "swarm metrics: m=" << m << " (" << util::space_size(m)
       << " nodes), " << requests << " requests, drop="
       << cfg.net.drop_probability << ", seed=" << cfg.seed << "\n\n";
  util::Table counters({"counter", "value"});
  for (const auto& [name, value] : snap.counters) {
    if (value != 0) {
      counters.add_row({name, static_cast<std::int64_t>(value)});
    }
  }
  *out << counters.render() << "\n";
  util::Table gauges({"gauge", "value"});
  for (const auto& [name, value] : snap.gauges) {
    gauges.add_row({name, value});
  }
  *out << gauges.render() << "\n";
  util::Table hists({"histogram", "count", "mean ms", "p50 ms", "p99 ms"});
  hists.set_precision(3);
  for (const auto& [name, h] : snap.histograms) {
    hists.add_row({name, h.total(), 1000.0 * h.mean(),
                   1000.0 * h.percentile(50.0), 1000.0 * h.percentile(99.0)});
  }
  *out << hists.render() << "\n";
  if (!series.empty()) {
    *out << "time-series (" << series.size() << " samples, every "
         << interval << "s):\n"
         << series
                .to_table({"client.gets", "peer.served", "net.bytes_out",
                           "engine.queue_depth", "client.get_latency"})
                .render();
  }
  return 0;
}

void print_chaos_report(const chaos::Report& r) {
  std::cout << "chaos: m=" << r.config.m << " b=" << r.config.b
            << " nodes=" << r.config.nodes << " seed=" << r.config.seed
            << " epochs=" << r.config.epochs
            << " intensity=" << r.config.fault_intensity
            << (r.config.silent_crashes ? " (broken recovery)" : "") << "\n"
            << "  schedule         : " << r.record.rules.size()
            << " fault rules, " << r.record.ops.size()
            << " membership ops\n"
            << "  injected         : burst_drops="
            << r.injected.burst_dropped
            << " partition_drops=" << r.injected.partition_dropped
            << " duplicates=" << r.injected.duplicated
            << " corruptions=" << r.injected.corrupted
            << " delay_spikes=" << r.injected.delay_spikes << "\n"
            << "  workload         : " << r.workload_issued << " GETs, "
            << r.workload_faults << " faulted, all terminated="
            << (r.workload_issued == r.workload_completed ? "yes" : "NO")
            << "\n"
            << "  wire             : " << r.messages_sent << " messages, "
            << r.repair_pushes << " repair pushes, "
            << r.sim_time << " simulated seconds\n"
            << "  audit            : "
            << (r.clean() ? "clean"
                          : std::to_string(r.violations.size()) +
                                " violation(s)")
            << "\n";
  for (const chaos::Violation& v : r.violations) {
    std::cout << "    [epoch " << v.epoch << "] " << v.check << ": "
              << v.detail << "\n";
  }
}

int cmd_chaos(const Flags& flags) {
  if (flags.has("replay")) {
    const std::string path = flags.get("replay", std::string());
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read artifact: " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::cout << "replaying " << path << "\n";
    const chaos::Report r = chaos::replay(buf.str());
    print_chaos_report(r);
    return r.clean() ? 0 : 1;
  }
  chaos::ChaosConfig cfg;
  cfg.m = flags.get("m", 6);
  cfg.b = flags.get("b", 2);
  cfg.nodes = static_cast<std::uint32_t>(flags.get("nodes", 40));
  cfg.seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  cfg.epochs = flags.get("epochs", 5);
  cfg.epoch_length = flags.get("epoch-length", 30.0);
  cfg.fault_intensity = flags.get("intensity", 0.5);
  cfg.files = flags.get("files", 48);
  cfg.get_rate = flags.get("rate", 20.0);
  cfg.silent_crashes = flags.get("broken", 0) != 0;
  chaos::Driver driver(cfg);
  const chaos::Report r = driver.run();
  print_chaos_report(r);
  // A violating run always leaves an artifact behind — it IS the bug
  // report (bit-identical replay via --replay).
  if (flags.has("artifact") || !r.clean()) {
    const std::string path =
        flags.get("artifact", std::string("chaos_artifact.json"));
    if (!chaos::write_artifact(path, r)) {
      throw std::runtime_error("cannot write artifact: " + path);
    }
    std::cout << "artifact written to " << path << "\n";
  }
  return r.clean() ? 0 : 1;
}

int cmd_serve(const Flags& flags) {
  net::ServeConfig cfg;
  cfg.hosts = net::HostMap::parse(flags.get("hosts", std::string()));
  cfg.self = static_cast<std::size_t>(flags.get("self", 0));
  cfg.m = flags.get("m", 6);
  cfg.b = flags.get("b", 2);
  cfg.seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  cfg.duration = flags.get("duration", 0.0);

  net::ServeHost host(std::move(cfg));
  const net::HostEntry& self = host.config().hosts.entry(host.config().self);
  std::cout << "serve: PIDs " << self.lo << "-" << self.hi << " on "
            << self.host << ":" << self.port << ", m=" << host.config().m
            << " b=" << host.config().b << ", "
            << (host.config().duration > 0.0
                    ? std::to_string(host.config().duration) + "s"
                    : std::string("until killed"))
            << "\n";
  (void)net::leave_spawn_cpu();
  host.run();

  host.write_stats(std::cout);
  if (flags.has("stats-out")) {
    const std::string path = flags.get("stats-out", std::string());
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    host.write_stats(out);
  }
  return 0;
}

void usage() {
  std::cerr << "usage: lesslog_cli "
               "<experiment|catalog|churn|tree|inspect|metrics|chaos|serve> "
               "[--flag value]...\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Flags flags(argc, argv, 2);
    if (cmd == "experiment") return cmd_experiment(flags);
    if (cmd == "catalog") return cmd_catalog(flags);
    if (cmd == "churn") return cmd_churn(flags);
    if (cmd == "tree") return cmd_tree(flags);
    if (cmd == "inspect") return cmd_inspect(flags);
    if (cmd == "metrics") return cmd_metrics(flags);
    if (cmd == "chaos") return cmd_chaos(flags);
    if (cmd == "serve") return cmd_serve(flags);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
