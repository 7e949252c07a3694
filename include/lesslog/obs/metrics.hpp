// Swarm-wide observability: metric cells and the registry that names them.
//
// The hot path is a pointer-indirect increment into a cache-line-padded
// cell — no hashing, no locking, no allocation. Cells are registered once
// (by name, at swarm construction) and referenced by raw pointer from the
// instrumented code; snapshots walk the registry in registration order,
// so two swarms built the same way produce shape-identical (and, at equal
// seeds, value-identical) snapshots.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lesslog/util/histogram.hpp"

namespace lesslog::obs {

/// Every metric cell owns a full cache line so adjacent cells never share
/// one (false sharing would make concurrent bench cells pay each other's
/// write traffic).
inline constexpr std::size_t kCellSize = 64;

/// Monotone event count. Wraps modulo 2^64 like any unsigned counter.
class alignas(kCellSize) Counter {
 public:
  void inc() noexcept { ++value_; }
  void add(std::uint64_t n) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};
static_assert(sizeof(Counter) == kCellSize && alignof(Counter) == kCellSize,
              "a Counter cell must own exactly one cache line");

/// Last-write-wins instantaneous value (queue depth, live peers, ...).
class alignas(kCellSize) Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};
static_assert(sizeof(Gauge) == kCellSize && alignof(Gauge) == kCellSize,
              "a Gauge cell must own exactly one cache line");

/// Log-bucketed latency distribution: bucket 0 is [0, 1 µs), bucket i>0
/// is [2^(i-1), 2^i) µs, and the last bucket absorbs everything beyond.
/// Mergeable across registries (bucket-wise add), so parallel bench cells
/// can be combined into one distribution. The counts live in a
/// util::Histogram keyed by bucket index, which also provides the ASCII
/// renderer for free.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBucketCount = 40;
  static constexpr double kBucketLoSeconds = 1e-6;

  LatencyHistogram() : buckets_(0.0, 1.0, kBucketCount) {}

  void add(double seconds) noexcept {
    buckets_.add(static_cast<double>(bucket_index(seconds)));
    sum_ += seconds;
  }

  /// Bucket-wise accumulate; associative and commutative in the counts
  /// (the running sum is a float accumulation — merge in a fixed order
  /// when bit-stable output matters).
  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      if (other.bucket(i) != 0) {
        buckets_.add_n(static_cast<double>(i), other.bucket(i));
      }
    }
    sum_ += other.sum_;
  }

  [[nodiscard]] std::int64_t total() const noexcept {
    return buckets_.total();
  }
  [[nodiscard]] std::int64_t bucket(std::size_t i) const noexcept {
    return buckets_.bucket(i);
  }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return total() > 0 ? sum_ / static_cast<double>(total()) : 0.0;
  }

  /// Inclusive lower bound of bucket i, in seconds.
  [[nodiscard]] static double bucket_lower(std::size_t i) noexcept {
    return i == 0 ? 0.0
                  : kBucketLoSeconds * std::ldexp(1.0, static_cast<int>(i) - 1);
  }
  /// Exclusive upper bound of bucket i, in seconds (the last bucket is
  /// open-ended; its nominal upper bound is still reported).
  [[nodiscard]] static double bucket_upper(std::size_t i) noexcept {
    return kBucketLoSeconds * std::ldexp(1.0, static_cast<int>(i));
  }

  [[nodiscard]] static std::size_t bucket_index(double seconds) noexcept {
    if (!(seconds >= kBucketLoSeconds)) return 0;  // includes NaN
    const int exp = std::ilogb(seconds / kBucketLoSeconds);
    const std::size_t idx = static_cast<std::size_t>(exp) + 1;
    return idx < kBucketCount ? idx : kBucketCount - 1;
  }

  /// Approximate percentile (pct in [0, 100]): the midpoint of the bucket
  /// holding the pct-th sample. Resolution is one octave — good enough
  /// for dashboards, deterministic for tests.
  [[nodiscard]] double percentile(double pct) const noexcept;

  /// The raw index-keyed histogram (bucket i at x = i), e.g. for
  /// util::Histogram::render().
  [[nodiscard]] const util::Histogram& buckets() const noexcept {
    return buckets_;
  }

  friend bool operator==(const LatencyHistogram& a,
                         const LatencyHistogram& b) noexcept {
    if (a.total() != b.total() || a.sum_ != b.sum_) return false;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      if (a.bucket(i) != b.bucket(i)) return false;
    }
    return true;
  }

 private:
  util::Histogram buckets_;
  double sum_ = 0.0;
};

/// Point-in-time copy of a registry's values, in registration order.
struct Snapshot {
  double time = 0.0;  ///< simulated seconds at capture
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, LatencyHistogram>> histograms;

  /// Accumulates `other` into this snapshot: counters and histogram
  /// buckets add; gauges add too (merging N swarm cells, the sum of
  /// instantaneous values is the fleet total). An empty snapshot adopts
  /// `other`'s shape; otherwise shapes must match exactly.
  void merge_from(const Snapshot& other);

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  [[nodiscard]] const std::uint64_t* counter(std::string_view name) const;
  [[nodiscard]] const double* gauge(std::string_view name) const;
  [[nodiscard]] const LatencyHistogram* histogram(std::string_view name) const;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Owns the metric cells of one swarm. References returned by the
/// find-or-create accessors are stable for the registry's lifetime (cells
/// live in deques), so instrumented code can hold raw pointers.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name. Registration is a linear name scan — call at
  /// setup time and cache the reference, not per event.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  [[nodiscard]] bool empty() const noexcept {
    return counter_names_.empty() && gauge_names_.empty() &&
           histogram_names_.empty();
  }

  /// Deterministic copy of every cell, in registration order.
  [[nodiscard]] Snapshot snapshot(double time = 0.0) const;

 private:
  std::deque<Counter> counters_;
  std::vector<std::string> counter_names_;
  std::deque<Gauge> gauges_;
  std::vector<std::string> gauge_names_;
  std::deque<LatencyHistogram> histograms_;
  std::vector<std::string> histogram_names_;
};

}  // namespace lesslog::obs
