// Online summary statistics (Welford) and small helpers used by the metrics
// layer and the benchmark tables.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace lesslog::util {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class Accumulator {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::int64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept {
    return mean_ * static_cast<double>(n_);
  }

  /// Merge another accumulator (parallel-reduction friendly).
  void merge(const Accumulator& other) noexcept;

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile of a sample set (nearest-rank on a sorted copy).
/// q in [0, 100]. Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// percentile() for an already ascending-sorted sample: no copy, no
/// re-sort. Callers that read several quantiles of one large sample sort
/// once and use this.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Jain's fairness index of a load vector: (Σx)² / (n·Σx²). 1.0 means
/// perfectly even; 1/n means one node carries everything. Used to report
/// how balanced the system is after replication.
[[nodiscard]] double jain_fairness(const std::vector<double>& xs);

}  // namespace lesslog::util
