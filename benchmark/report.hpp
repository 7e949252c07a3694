// Shared scaffolding of the LessLog benchmark: run arguments, the result
// every workload fills (metrics, operation counts, correctness gates),
// statistics, process accounting from /proc, outcome digests, and the
// in-memory span log of the traced pass.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lesslog::benchmark {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Keeps a value alive past the optimizer, so a timed loop whose result
/// is otherwise unused is not deleted.
template <typename T>
inline void keep(const T& value) {
  __asm__ __volatile__("" : : "g"(&value) : "memory");
}

/// What every workload is told: its seed, how long to measure, whether
/// this is the traced pass, and whether to run at smoke size.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured duration of one run
  bool trace = false;     ///< per-layer pass instead of end-to-end
  bool smoke = false;     ///< ~1/20 size, every gate on
  std::string out_dir;    ///< bench document and spans JSONL go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run's output. End-to-end and per-layer metrics are the
/// ones BENCHMARK.json registers; details are printed and written to the
/// bench document only (numbers that exist on one workload alone).
class Result {
 public:
  void end_to_end(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);
  void detail(std::string name, double value, std::string unit);

  /// Records and prints one correctness gate.
  void gate(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const noexcept { return gate_failures_ == 0; }
  [[nodiscard]] const std::vector<Metric>& end_to_end() const noexcept {
    return e2e_;
  }
  [[nodiscard]] const std::vector<Metric>& layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] const std::vector<Metric>& details() const noexcept {
    return details_;
  }

  std::int64_t attempted = 0;  ///< operations the workload issued
  std::int64_t failed = 0;     ///< of those, the ones that did not succeed

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<Metric> details_;
  int gate_failures_ = 0;
};

/// Prints every metric, writes the lesslog.bench v1 document, and prints
/// the one-line JSON result last. Returns the process exit code.
int finish(const RunArgs& args, const Result& result, double wall_s);

// -- Statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile (q in [0, 100]) of an ascending-sorted sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Median over `reps` repetitions of body()'s wall time divided by `ops`:
/// the per-operation cost of a micro-timed layer call, in ns.
template <typename Body>
[[nodiscard]] double ns_per_op(int reps, double ops, Body&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    body();
    samples.push_back(static_cast<double>(now_ns() - t0) / ops);
  }
  return median(std::move(samples));
}

/// CPU seconds this process has used (all threads).
[[nodiscard]] double process_cpu_s();

/// CPU seconds the calling thread has used.
[[nodiscard]] double thread_cpu_s();

/// How much slower than a reference host this one ran, from a fixed
/// kernel timed between units of work: two sorts of 16384 random 64-bit
/// keys (128 KB, cache-resident, branchy), the second timed. No change to
/// the library can alter the kernel. On a shared host a thread's speed
/// moves by a third with the vCPU it lands on and with what other tenants
/// run, for seconds to minutes at a time; the kernel, run on the same
/// thread in the same moments, slows with it (its time tracked the fig5
/// solver's with correlation 0.98 over three minutes of such swings).
/// Every workload samples it on the main thread between units of work
/// and reports its timings scaled by slowdown(): what it would measure
/// where the kernel takes kReferenceUs. It follows fig5, churn and the
/// wire (whose generator thread sets the closed loop's pace) closely and
/// the m20 swarm, whose shard threads run on the other vCPUs, loosely;
/// benchmark/README.md gives the spreads with and without it.
class HostSpeed {
 public:
  static constexpr double kReferenceUs = 1000.0;

  HostSpeed();
  /// Times the kernel, at most once every 200 ms.
  void sample();
  /// Median kernel time over the run.
  [[nodiscard]] double reference_us() const;
  /// reference_us() / kReferenceUs; 1 when never sampled.
  [[nodiscard]] double slowdown() const;
  void report(Result& result) const;

 private:
  static constexpr std::size_t kKeys = 16384;
  static constexpr std::int64_t kEveryNs = 200'000'000;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> scratch_;
  std::vector<double> samples_us_;
  std::int64_t last_ns_ = 0;
};

/// The process's one HostSpeed.
HostSpeed& host_speed();

/// Wall and CPU time of each unit of one repetition of a workload.
struct UnitTimes {
  template <typename Body>
  void time(Body&& body) {
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    body();
    wall_ns.push_back(static_cast<double>(now_ns() - t0));
    cpu_ns.push_back(1e9 * (process_cpu_s() - cpu0));
  }
  [[nodiscard]] double wall_s() const;

  std::vector<double> wall_ns;
  std::vector<double> cpu_ns;
};

/// `reps[r][u]` is repetition r's time for unit u of a workload whose
/// units are identical work in every repetition. Returns the sum over
/// units of each unit's median time over the repetitions. A unit is short
/// next to the seconds a change of the host's clock speed lasts, so each
/// sample sees one speed; the median takes the speed the host ran at
/// most of the run, where the minimum would take its briefest burst.
[[nodiscard]] double sum_of_unit_medians(
    const std::vector<std::vector<double>>& reps);

/// Log-linear histogram of positive values (64 buckets per power of two,
/// so a percentile is within 1.1% of the sample it stands for) in fixed
/// memory: recording a million latencies does not grow the process.
class Histogram {
 public:
  void add(double v);
  void merge(const Histogram& other);
  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  /// The q-th percentile (q in [0, 100]); 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  /// Samples strictly above `v` (to bucket resolution).
  [[nodiscard]] std::int64_t above(double v) const;

 private:
  static constexpr int kSub = 64;
  static constexpr int kOctaves = 40;  ///< 2^-10 .. 2^30 of the unit
  std::vector<std::int64_t> buckets_ =
      std::vector<std::int64_t>(kSub * kOctaves, 0);
  std::int64_t count_ = 0;
};

// -- Process accounting ------------------------------------------------------

/// A process's counters from /proc: CPU time on the main thread
/// (schedstat, ns resolution), read+write syscalls (io), context switches
/// and peak resident set (status).
struct ProcStats {
  double cpu_s = 0.0;
  std::int64_t syscalls = 0;
  std::int64_t ctxsw = 0;
  double peak_rss_mb = 0.0;
};

/// Reads `pid`'s counters (0 = this process); nullopt when /proc refuses.
[[nodiscard]] std::optional<ProcStats> read_proc(pid_t pid = 0);

// -- Outcome digests -------------------------------------------------------

/// FNV-1a over the bytes of everything added: two runs of one seed must
/// print the same digest.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  void add(std::string_view s) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// -- Spans of the traced pass ----------------------------------------------

/// Spans kept in memory while a traced pass runs and written as JSONL
/// when the benchmark ends (one preformatted JSON object per line).
class SpanLog {
 public:
  void add(std::string json_object) {
    lines_.push_back(std::move(json_object));
  }
  /// Writes every span to `path`; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<std::string> lines_;
};

/// The per-layer time ledger: count x ns/op per layer, their sum, and the
/// share of a measured wall time the sum explains.
class Ledger {
 public:
  void add(std::string layer, double count, double ns_per_op);
  /// Prints the table against `capacity_s` (wall x busy threads) and
  /// returns sum / capacity — the explained fraction.
  double print(const std::string& title, double capacity_s) const;

 private:
  struct Row {
    std::string layer;
    double count;
    double ns;
  };
  std::vector<Row> rows_;
};

}  // namespace lesslog::benchmark
