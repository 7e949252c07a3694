#include "lesslog/util/stats.hpp"

#include <algorithm>
#include <cassert>

namespace lesslog::util {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  assert(q >= 0.0 && q <= 100.0);
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  if (sorted.empty()) return 0.0;
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

double jain_fairness(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace lesslog::util
