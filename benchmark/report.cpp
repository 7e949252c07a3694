#include "report.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "bench_schema.hpp"
#include "lesslog/util/stats.hpp"

namespace lesslog::benchmark {

namespace {

std::string number(double v) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

void print_group(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << tag << ' ' << m.name << " = " << number(m.value) << ' '
              << m.unit << '\n';
  }
}

/// The lesslog.bench v1 document: one row per metric group, validated by
/// parsing its own bytes back before it is written.
bool write_bench_document(const RunArgs& args, const Result& result,
                          double wall_s) {
  bench::JsonSchema doc;
  doc.bench = "lesslog_bench";
  doc.family = args.workload.rfind("fig5", 0) == 0 ? "solve" : "wire";
  // The document's numbers parse back as doubles, exact below 2^53; the
  // file name carries the whole seed.
  doc.seed = args.seed & ((std::uint64_t{1} << 53) - 1);
  doc.seeds = 1;
  doc.threads = 4;
  doc.quick = args.smoke;
  doc.wall_ms = wall_s * 1e3;
  const auto row = [&](const char* group, const std::vector<Metric>& ms) {
    bench::SchemaRow r;
    r.bench = "lesslog_bench";
    r.cell = args.workload + "," + group;
    for (const Metric& m : ms) {
      r.tags.emplace_back(m.name, m.unit);
      r.metrics.emplace_back(m.name, m.value);
    }
    doc.rows.push_back(std::move(r));
  };
  row("end_to_end", result.end_to_end());
  row("per_layer", result.layers());
  row("detail", result.details());

  std::ostringstream body;
  doc.write(body);
  const std::optional<bench::JsonSchema> back =
      bench::JsonSchema::parse(body.str());
  if (!back || *back != doc) {
    std::cerr << "bench document failed its own round-trip\n";
    return false;
  }
  const std::string path = args.out_dir + "/" + args.workload + ".seed" +
                           std::to_string(args.seed) +
                           (args.smoke ? ".smoke" : "") +
                           (args.trace ? ".trace" : "") + ".json";
  std::ofstream out(path);
  out << body.str();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "bench document: " << path << "\n";
  return true;
}

}  // namespace

void Result::end_to_end(std::string name, double value, std::string unit) {
  e2e_.push_back({std::move(name), value, std::move(unit)});
}

void Result::layer(std::string name, double value, std::string unit) {
  layers_.push_back({std::move(name), value, std::move(unit)});
}

void Result::detail(std::string name, double value, std::string unit) {
  details_.push_back({std::move(name), value, std::move(unit)});
}

void Result::gate(bool ok, const std::string& what) {
  std::cout << (ok ? "[gate OK]   " : "[gate FAIL] ") << what << "\n";
  if (!ok) ++gate_failures_;
}

int finish(const RunArgs& args, const Result& result, double wall_s) {
  print_group("[end-to-end]", result.end_to_end());
  print_group("[per-layer] ", result.layers());
  print_group("[detail]    ", result.details());
  std::cout << "attempted=" << result.attempted << " failed=" << result.failed
            << " wall_s=" << number(wall_s) << "\n";

  bool ok = result.correct();
  const std::vector<Metric>& reported =
      args.trace ? result.layers() : result.end_to_end();
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      std::cout << "[gate FAIL] metric " << m.name << " is not finite\n";
      ok = false;
    }
  }
  ok = write_bench_document(args, result, wall_s) && ok;

  std::ostringstream json;
  json << "{\"correct\": " << (ok ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    json << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << (std::isfinite(m.value) ? number(m.value) : "null")
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return ok ? 0 : 1;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double UnitTimes::wall_s() const {
  double ns = 0.0;
  for (const double v : wall_ns) ns += v;
  return 1e-9 * ns;
}

double sum_of_unit_medians(const std::vector<std::vector<double>>& reps) {
  double sum = 0.0;
  std::vector<double> unit(reps.size());
  for (std::size_t u = 0; !reps.empty() && u < reps.front().size(); ++u) {
    for (std::size_t r = 0; r < reps.size(); ++r) unit[r] = reps[r].at(u);
    sum += median(unit);
  }
  return sum;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  return util::percentile_sorted(sorted, q);
}

namespace {

constexpr double kHistogramFloor = 1.0 / 1024.0;

}  // namespace

void Histogram::add(double v) {
  // Bucket index = kSub * log2(v / floor), clamped to the covered range.
  const double pos = std::log2(std::max(v, kHistogramFloor) / kHistogramFloor);
  const auto i = static_cast<std::size_t>(std::min(
      pos * kSub, static_cast<double>(buckets_.size() - 1)));
  ++buckets_[i];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(
      std::ceil(q / 100.0 * static_cast<double>(count_)));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= std::max<std::int64_t>(rank, 1)) {
      return kHistogramFloor *
             std::exp2((static_cast<double>(i) + 0.5) / kSub);
    }
  }
  return kHistogramFloor * std::exp2(static_cast<double>(kOctaves));
}

std::int64_t Histogram::above(double v) const {
  const double pos = std::log2(std::max(v, kHistogramFloor) / kHistogramFloor);
  const auto first = static_cast<std::size_t>(std::min(
      pos * kSub + 1.0, static_cast<double>(buckets_.size())));
  std::int64_t n = 0;
  for (std::size_t i = first; i < buckets_.size(); ++i) n += buckets_[i];
  return n;
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

HostSpeed::HostSpeed() : keys_(kKeys), scratch_(kKeys) {
  std::uint64_t x = 0x5EED5EEDULL;
  for (std::uint64_t& k : keys_) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    k = x;
  }
}

void HostSpeed::sample() {
  const std::int64_t now = now_ns();
  if (last_ns_ != 0 && now - last_ns_ < kEveryNs) return;
  // The first sort warms the caches; the second is timed, so the sample
  // does not depend on what the workload left in them.
  std::int64_t t0 = 0;
  for (int pass = 0; pass < 2; ++pass) {
    t0 = now_ns();
    std::copy(keys_.begin(), keys_.end(), scratch_.begin());
    std::sort(scratch_.begin(), scratch_.end());
    keep(scratch_[kKeys / 2]);
  }
  samples_us_.push_back(1e-3 * static_cast<double>(now_ns() - t0));
  last_ns_ = now_ns();
}

double HostSpeed::reference_us() const { return median(samples_us_); }

double HostSpeed::slowdown() const {
  return samples_us_.empty() ? 1.0 : reference_us() / kReferenceUs;
}

void HostSpeed::report(Result& result) const {
  result.detail("host.reference_us", reference_us(), "us");
  result.detail("host.reference_samples",
                static_cast<double>(samples_us_.size()), "count");
  result.detail("host.slowdown", slowdown(), "ratio");
}

HostSpeed& host_speed() {
  static HostSpeed speed;
  return speed;
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::optional<ProcStats> read_proc(pid_t pid) {
  const std::string dir =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  ProcStats out;
  {
    std::ifstream in(dir + "/schedstat");
    std::int64_t run_ns = 0;
    if (!(in >> run_ns)) return std::nullopt;
    out.cpu_s = static_cast<double>(run_ns) * 1e-9;
  }
  {
    std::ifstream in(dir + "/io");
    std::string key;
    std::int64_t value = 0;
    while (in >> key >> value) {
      if (key == "syscr:" || key == "syscw:") out.syscalls += value;
    }
  }
  std::ifstream in(dir + "/status");
  if (!in) return std::nullopt;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    std::int64_t value = 0;
    fields >> key >> value;
    if (key == "VmHWM:") {
      out.peak_rss_mb = static_cast<double>(value) / 1024.0;
    } else if (key == "voluntary_ctxt_switches:" ||
               key == "nonvoluntary_ctxt_switches:") {
      out.ctxsw += value;
    }
  }
  return out;
}

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(std::string_view s) noexcept {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << h_;
  return out.str();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  for (const std::string& line : lines_) out << line << '\n';
  out.flush();
  if (!out) return false;
  std::cout << "spans: " << lines_.size() << " written to " << path << "\n";
  return true;
}

void Ledger::add(std::string layer, double count, double ns_per_op) {
  rows_.push_back({std::move(layer), count, ns_per_op});
}

double Ledger::print(const std::string& title, double capacity_s) const {
  std::cout << "-- ledger: " << title << " --\n"
            << std::left << std::setw(28) << "layer" << std::right
            << std::setw(16) << "count" << std::setw(12) << "ns/op"
            << std::setw(14) << "product s\n";
  double sum_ns = 0.0;
  for (const Row& r : rows_) {
    const double product = r.count * r.ns;
    sum_ns += product;
    std::cout << std::left << std::setw(28) << r.layer << std::right
              << std::setw(16) << std::fixed << std::setprecision(0)
              << r.count << std::setw(12) << std::setprecision(1) << r.ns
              << std::setw(13) << std::setprecision(4) << product * 1e-9
              << "\n";
  }
  const double explained =
      capacity_s > 0.0 ? sum_ns * 1e-9 / capacity_s : 0.0;
  std::cout << std::left << std::setw(28) << "sum" << std::right
            << std::setw(41) << std::setprecision(4) << sum_ns * 1e-9
            << "\n"
            << "measured wall x threads = " << capacity_s
            << " s, explained fraction = " << std::setprecision(3)
            << explained << "\n";
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
  return explained;
}

}  // namespace lesslog::benchmark
