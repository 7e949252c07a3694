// The benchmark's four workloads. Each one generates its inputs from
// args.seed, measures for args.seconds, checks its outputs through
// Result::gate, and reports the end-to-end metrics (untraced run) or the
// per-layer metrics (args.trace) that BENCHMARK.json registers.
#pragma once

#include "report.hpp"

namespace lesslog::benchmark {

/// fig5_solve_m14: the Figure 5 even-load sweep on the fluid solver.
void run_fig5(const RunArgs& args, Result& result);

/// swarm_get_m20_s4: 2^20 peers on four shards, read-only GET rounds.
void run_swarm_get(const RunArgs& args, Result& result);

/// swarm_churn_m14: GETs, updates, crashes and restarts, auto-replication.
void run_swarm_churn(const RunArgs& args, Result& result);

/// wire_get_loopback: GETs against two serve processes over loopback, in a
/// closed loop (untraced) and at open-loop Poisson rates (traced).
void run_wire(const RunArgs& args, Result& result);

}  // namespace lesslog::benchmark
