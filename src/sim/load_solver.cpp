#include "lesslog/sim/load_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "lesslog/core/routing.hpp"
#include "lesslog/util/bits.hpp"

namespace lesslog::sim {

namespace {

constexpr std::uint32_t kNone = core::AncestorTable::kNone;

__extension__ using HopUnits = __int128;

/// Fixed-point demand: one unit is 2^-32 req/s.
constexpr double kUnitsPerRate = 0x1p32;

/// Heap ordering for the lazy max tracker: the top is the largest served
/// value, lowest PID on ties — matching std::max_element over served[],
/// which returns the first (lowest-PID) maximum.
bool heap_less(const std::pair<double, std::uint32_t>& a,
               const std::pair<double, std::uint32_t>& b) {
  return a.first < b.first || (a.first == b.first && a.second > b.second);
}

/// A fixed-point sum as a rate: exact below 2^53 units (2^21 req/s),
/// rounded to nearest above, the same way in both solvers.
double to_rate(std::int64_t units) {
  return static_cast<double>(units) / kUnitsPerRate;
}

double mean_hops(HopUnits hop_units, std::int64_t total_units) {
  return total_units > 0 ? static_cast<double>(hop_units) /
                               static_cast<double>(total_units)
                         : 0.0;
}

struct Units {
  std::vector<std::int64_t> per_pid;
  std::int64_t total = 0;
};

/// Each rate of `demand` rounded once to fixed point, and their total.
/// Throws std::invalid_argument when the workload does not cover `slots`
/// PIDs, a rate is negative, NaN, or too large for the int64 sums, or a
/// dead node carries demand.
Units quantize(const Workload& demand, const util::StatusWord& live,
               std::uint32_t slots, const char* who) {
  if (demand.size() != slots) {
    throw std::invalid_argument(std::string(who) +
                                ": workload size does not match the ID space");
  }
  Units out;
  out.per_pid.resize(slots);
  for (std::uint32_t pid = 0; pid < slots; ++pid) {
    const double rate = demand.rate[pid];
    // False for NaN too; 2^31 req/s is 2^63 units.
    if (!(rate >= 0.0 && rate < 0x1p31)) {
      throw std::invalid_argument(
          std::string(who) +
          ": demand rates must be non-negative and below 2^31 req/s");
    }
    const auto u = static_cast<std::int64_t>(std::llround(rate * kUnitsPerRate));
    if (__builtin_add_overflow(out.total, u, &out.total)) {
      throw std::invalid_argument(
          std::string(who) + ": total demand overflows the fixed-point sums");
    }
    if (u != 0 && !live.is_live(pid)) {
      throw std::invalid_argument(std::string(who) +
                                  ": dead nodes issue no requests");
    }
    out.per_pid[pid] = u;
  }
  return out;
}

template <typename RouteFn>
LoadReport solve_generic(std::uint32_t slots, const util::StatusWord& live,
                         const Workload& demand, const RouteFn& route) {
  const Units units = quantize(demand, live, slots, "solve_load");
  std::vector<std::int64_t> served(slots, 0);
  std::vector<std::int64_t> forwarded(slots, 0);
  std::int64_t fault = 0;
  HopUnits hop_units = 0;
  for (std::uint32_t pid = 0; pid < slots; ++pid) {
    const std::int64_t u = units.per_pid[pid];
    if (u == 0) continue;
    const core::RouteResult r = route(core::Pid{pid});
    hop_units += HopUnits{u} * r.hops();
    if (r.served_by.has_value()) {
      served[r.served_by->value()] += u;
      // Every node on the path before the server forwards the stream.
      for (const core::Pid p : r.path) {
        if (p == *r.served_by) break;
        forwarded[p.value()] += u;
      }
    } else {
      fault += u;
      for (const core::Pid p : r.path) forwarded[p.value()] += u;
    }
  }

  LoadReport report;
  report.served.resize(slots);
  report.forwarded.resize(slots);
  for (std::uint32_t pid = 0; pid < slots; ++pid) {
    report.served[pid] = to_rate(served[pid]);
    report.forwarded[pid] = to_rate(forwarded[pid]);
  }
  report.fault_rate = to_rate(fault);
  report.mean_hops = mean_hops(hop_units, units.total);
  const auto max_it =
      std::max_element(report.served.begin(), report.served.end());
  if (max_it != report.served.end()) {
    report.max_served = *max_it;
    report.max_served_pid = static_cast<std::uint32_t>(
        std::distance(report.served.begin(), max_it));
  }
  return report;
}

}  // namespace

std::vector<std::uint32_t> LoadReport::overloaded(double capacity) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t pid = 0; pid < served.size(); ++pid) {
    if (served[pid] > capacity) out.push_back(pid);
  }
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    return served[a] > served[b];
  });
  return out;
}

std::optional<std::uint32_t> LoadReport::most_overloaded(
    double capacity) const {
  std::optional<std::uint32_t> best;
  double best_load = capacity;
  for (std::uint32_t pid = 0; pid < served.size(); ++pid) {
    // Strict > keeps the first (lowest-PID) maximum on ties.
    if (served[pid] > best_load) {
      best = pid;
      best_load = served[pid];
    }
  }
  return best;
}

LoadReport solve_load(const core::LookupTree& tree, const CopyMap& has_copy,
                      const util::StatusWord& live, const Workload& demand) {
  const core::HasCopyFn copy_fn = [&has_copy](core::Pid p) {
    return has_copy[p.value()] != 0;
  };
  return solve_generic(
      live.capacity(), live, demand,
      [&](core::Pid k) { return core::route_get(tree, k, live, copy_fn); });
}

LoadReport solve_load(const core::SubtreeView& view, const CopyMap& has_copy,
                      const util::StatusWord& live, const Workload& demand) {
  const core::HasCopyFn copy_fn = [&has_copy](core::Pid p) {
    return has_copy[p.value()] != 0;
  };
  return solve_generic(live.capacity(), live, demand, [&](core::Pid k) {
    return view.route_get(k, live, copy_fn);
  });
}

IncrementalLoadSolver::IncrementalLoadSolver(const core::SubtreeView& view,
                                             const util::StatusWord& live,
                                             const Workload& demand)
    : view_(view), live_(&live), demand_(&demand) {
  Units units = quantize(demand, live, util::space_size(view.tree().width()),
                         "IncrementalLoadSolver");
  units_ = std::move(units.per_pid);
  total_units_ = units.total;
  anchor_ = view_.ancestor_table(live);
  const std::uint32_t count = view_.subtree_count();
  holder_.assign(count, kNone);
  root_live_.assign(count, 0);
  for (std::uint32_t sid = 0; sid < count; ++sid) {
    root_live_[sid] =
        live.is_live(view_.subtree_root(sid).value()) ? char{1} : char{0};
    if (const auto h = view_.insertion_target(sid, live)) {
      holder_[sid] = h->value();
    }
  }
}

IncrementalLoadSolver::IncrementalLoadSolver(const core::LookupTree& tree,
                                             const util::StatusWord& live,
                                             const Workload& demand)
    : IncrementalLoadSolver(core::SubtreeView(tree, 0), live, demand) {}

void IncrementalLoadSolver::reset(const CopyMap& has_copy) {
  if (has_copy.size() != units_.size()) {
    throw std::invalid_argument(
        "IncrementalLoadSolver: copy map size does not match the ID space");
  }
  copies_ = &has_copy;
  reset_internal();
}

void IncrementalLoadSolver::reset_internal() {
  assert(copies_ != nullptr && "reset() must precede solving");
  const CopyMap& copies = *copies_;
  const auto slots = static_cast<std::uint32_t>(units_.size());
  served_.assign(slots, 0);
  forwarded_.assign(slots, 0);  // a node's inflow until the pass reaches it
  hop_units_ = 0;
  exotic_ = false;

  // Children before parents: an ancestor, and the stand-in holder (the
  // largest live subtree VID), come later in ascending subtree VID.
  const std::uint32_t top = util::mask_of(view_.subtree_width());
  for (std::uint32_t sid = 0; sid < view_.subtree_count(); ++sid) {
    for (std::uint32_t sv = 0; sv <= top; ++sv) {
      const std::uint32_t q = view_.pid_at(sv, sid).value();
      if (!live_->is_live(q)) continue;
      const std::int64_t flow = forwarded_[q] + units_[q];
      if (copies[q] != 0) {
        served_[q] = flow;
        forwarded_[q] = 0;
        continue;
      }
      forwarded_[q] = flow;
      hop_units_ += flow;
      std::uint32_t next = anchor_[q];
      if (next == kNone && root_live_[sid] == 0 && holder_[sid] != q) {
        next = holder_[sid];
      }
      if (next != kNone) {
        forwarded_[next] += flow;
      } else if (flow != 0) {
        exotic_ = true;  // faults in its own subtree
      }
    }
  }

  if (exotic_) {
    // Faulting or migrating streams: outside the model, so the oracle
    // solves the whole map.
    report_ = solve_load(view_, copies, *live_, *demand_);
  } else {
    report_.served.resize(slots);
    report_.forwarded.resize(slots);
    for (std::uint32_t p = 0; p < slots; ++p) {
      report_.served[p] = to_rate(served_[p]);
      report_.forwarded[p] = to_rate(forwarded_[p]);
    }
    report_.fault_rate = 0.0;
  }
  heap_.clear();
  for (std::uint32_t p = 0; p < slots; ++p) {
    if (report_.served[p] > 0.0) heap_.emplace_back(report_.served[p], p);
  }
  std::make_heap(heap_.begin(), heap_.end(), &heap_less);
}

void IncrementalLoadSolver::set_served(std::uint32_t pid,
                                       std::int64_t units) {
  served_[pid] = units;
  const double v = to_rate(units);
  report_.served[pid] = v;
  if (v > 0.0) {
    heap_.emplace_back(v, pid);
    std::push_heap(heap_.begin(), heap_.end(), &heap_less);
  }
}

void IncrementalLoadSolver::set_forwarded(std::uint32_t pid,
                                          std::int64_t units) {
  forwarded_[pid] = units;
  report_.forwarded[pid] = to_rate(units);
}

void IncrementalLoadSolver::prune_heap() {
  // Entries whose stored value no longer matches served[] are stale
  // leftovers from before an update; pop until the top is current.
  while (!heap_.empty() &&
         heap_.front().first != report_.served[heap_.front().second]) {
    std::pop_heap(heap_.begin(), heap_.end(), &heap_less);
    heap_.pop_back();
  }
}

void IncrementalLoadSolver::add_copy(std::uint32_t pid) {
  assert(copies_ != nullptr && "reset() must precede add_copy()");
  assert((*copies_)[pid] != 0 && "caller sets has_copy[pid] before the call");
  assert(live_->is_live(pid) && "copies are placed on live nodes");
  if (exotic_) {
    reset_internal();
    return;
  }
  const CopyMap& copies = *copies_;

  // The new copy captures every stream that forwarded through P(pid).
  const std::int64_t captured = forwarded_[pid];
  if (captured == 0) return;
  set_forwarded(pid, 0);
  set_served(pid, captured);

  // Those streams leave every copyless node up to the holder that served
  // them until now, and each request saves one hop per node left behind.
  HopUnits saved = 1;
  std::uint32_t node = pid;
  std::uint32_t up = anchor_[pid];
  while (up != kNone && copies[up] == 0) {
    set_forwarded(up, forwarded_[up] - captured);
    ++saved;
    node = up;
    up = anchor_[up];
  }
  if (up == kNone) {
    // The chain ended at a copyless forest root, so the streams went on to
    // the stand-in holder of a dead-root subtree (anything else faulted
    // and made the map exotic).
    const std::uint32_t sid = view_.subtree_id(core::Pid{pid});
    up = root_live_[sid] == 0 && holder_[sid] != node ? holder_[sid] : kNone;
    if (up == kNone || copies[up] == 0) {
      reset_internal();  // defensive: not a modeled shape; stay exact
      return;
    }
  }
  set_served(up, served_[up] - captured);
  hop_units_ -= HopUnits{captured} * saved;
}

const LoadReport& IncrementalLoadSolver::report() {
  if (!exotic_) {
    report_.mean_hops = mean_hops(hop_units_, total_units_);
    prune_heap();
    report_.max_served = heap_.empty() ? 0.0 : heap_.front().first;
    report_.max_served_pid = heap_.empty() ? 0u : heap_.front().second;
  }
  return report_;
}

std::optional<std::uint32_t> IncrementalLoadSolver::most_overloaded(
    double capacity) {
  prune_heap();
  if (heap_.empty() || heap_.front().first <= capacity) return std::nullopt;
  return heap_.front().second;
}

}  // namespace lesslog::sim
