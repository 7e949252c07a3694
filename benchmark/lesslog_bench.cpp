// lesslog_bench — the LessLog benchmark's main program.
//
//   lesslog_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--out DIR]
//
// Runs one workload (fig5_solve_m14, swarm_get_m20_s4, swarm_churn_m14,
// wire_get_loopback) in this process, prints every metric by name with
// its unit, checks the outputs, writes a lesslog.bench v1 document (and,
// traced, the spans JSONL) under --out, and prints one JSON object as
// the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
// The exit code is 0 only when every correctness gate passed; a usage
// error or an exception exits 2 without a result line.
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace lesslog::benchmark;

const std::map<std::string, std::function<void(const RunArgs&, Result&)>>&
workloads() {
  static const std::map<std::string,
                        std::function<void(const RunArgs&, Result&)>>
      table{{"fig5_solve_m14", run_fig5},
            {"swarm_get_m20_s4", run_swarm_get},
            {"swarm_churn_m14", run_swarm_churn},
            {"wire_get_loopback", run_wire}};
  return table;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lesslog_bench: " << why << "\n"
            << "usage: lesslog_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n"
            << "workloads:";
  for (const auto& [name, fn] : workloads()) std::cerr << ' ' << name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text,
                         std::uint64_t low, std::uint64_t high) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
      v < low || v > high) {
    usage(flag + " expects an integer in [" + std::to_string(low) + ", " +
          std::to_string(high) + "], got '" + text + "'");
  }
  return v;
}

RunArgs parse(int argc, char** argv) {
  RunArgs args;
  args.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (!has_value) {
      usage("missing value or unknown flag: " + flag);
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, argv[++i], 0,
                             std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--seconds") {
      args.seconds =
          static_cast<double>(parse_uint(flag, argv[++i], 1, 600));
    } else if (flag == "--trace") {
      args.trace = parse_uint(flag, argv[++i], 0, 1) == 1;
    } else if (flag == "--out") {
      args.out_dir = argv[++i];
    } else {
      usage("unknown flag: " + flag);
    }
  }
  if (workloads().count(args.workload) == 0) {
    usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const RunArgs args = parse(argc, argv);
  try {
    std::filesystem::create_directories(args.out_dir);
    std::cout << "== lesslog_bench " << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds
              << (args.trace ? " traced" : "") << (args.smoke ? " smoke" : "")
              << " ==\n";
    const Clock::time_point t0 = Clock::now();
    Result result;
    workloads().at(args.workload)(args, result);
    return finish(args, result, seconds_since(t0));
  } catch (const std::exception& e) {
    std::cerr << "lesslog_bench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
}
