#!/usr/bin/env bash
# Regenerates BENCH_solver.json, the fluid load solver's committed
# trajectory: bench/fig5_even_load's full sweep (20 rates) on one seed and
# one thread, under the scratch oracle at m = 10 and the incremental
# solver at m = 10, 14, 16 and 20. Each point keeps fig5_even_load's own
# wall_ms and per-cell rows; the document also records the core count and
# the CPU model.
#
#   tools/bench_solver.sh [BUILD_DIR]    # default: build
#
# Needs jq. Writes BENCH_solver.json at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}
bench=$build/bench/fig5_even_load
[[ -x $bench ]] || { echo "bench_solver.sh: no $bench; build first" >&2; exit 1; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

points=()
run() {  # name solver m [extra flags]
  local name=$1 solver=$2 m=$3
  shift 3
  echo "bench_solver.sh: $name" >&2
  "$bench" --m "$m" --seeds 1 --threads 1 --solver "$solver" "$@" \
    --json "$tmp/$name.json" > /dev/null
  points+=("$name")
}
run scratch_m10 scratch 10
run incremental_m10 incremental 10
run incremental_m14 incremental 14
run incremental_m16 incremental 16
run incremental_m20 incremental 20

docs=()
for p in "${points[@]}"; do docs+=("$tmp/$p.json"); done
jq -s \
  --arg date "$(date -u +%F)" \
  --argjson nproc "$(nproc)" \
  --arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
  --argjson names "$(printf '%s\n' "${points[@]}" | jq -R . | jq -s .)" '
  [range(length) as $i | .[$i] + {name: $names[$i]}] as $docs
  | def wall($n): ($docs[] | select(.name == $n) | .wall_ms);
  {
    description: "bench/fig5_even_load, one seed, one thread: wall_ms of the whole sweep (20 rates x log-based, LessLog, random) and, per cell, replicas and ns per balance-loop solve. Regenerate with tools/bench_solver.sh.",
    command: "tools/bench_solver.sh",
    date: $date,
    nproc: $nproc,
    cpu: $cpu,
    speedup_m10: (wall("scratch_m10") / wall("incremental_m10")),
    points: [$docs[] | {
      name, solver, m: .rows[0].metrics.m, quick, wall_ms,
      rows: [.rows[] | {rate: .metrics.rate, policy: .tags.policy,
                        replicas: .metrics.replicas,
                        ns_per_solve: .metrics.ns_per_solve}]
    }]
  }' "${docs[@]}" > "$root/BENCH_solver.json"
echo "bench_solver.sh: wrote $root/BENCH_solver.json" >&2
