#!/usr/bin/env bash
# The LessLog benchmark's one command: builds benchmark/ (and through it
# the library and lesslog_cli) into build-bench/ at the repository root,
# then runs workloads, each in its own process.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke]
#
# Without --workload it runs all four workloads in turn. Every run prints
# its metrics by name with their units, checks its outputs, writes a
# lesslog.bench v1 document (and, traced, a spans JSONL file) under
# build-bench/results/, and prints one JSON result object as its last
# line. The exit code is non-zero when the build fails or any run fails
# a correctness gate. --seconds is the run length the BENCHMARK.json
# harness passes (its run_seconds); results are comparable only at one
# value, 20 by default.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
workloads=(fig5_solve_m14 swarm_get_m20_s4 swarm_churn_m14 wire_get_loopback)

selected=()
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected=("$2"); shift 2 ;;
    --seed|--seconds) args+=("$1" "$2"); shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        args+=(--trace "$2"); shift 2
      else
        args+=(--trace 1); shift
      fi ;;
    --smoke) args+=(--smoke); shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${workloads[@]}")

mkdir -p "$build"
exec 9>"$build/.lock"
flock 9
configure() {
  [[ -f "$build/CMakeCache.txt" ]] ||
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release
}
if ! configure >"$build/build.log" 2>&1 ||
   ! cmake --build "$build" -j 4 >>"$build/build.log" 2>&1; then
  echo "run.sh: build failed; the end of $build/build.log:" >&2
  tail -n 30 "$build/build.log" >&2
  exit 1
fi
flock -u 9

status=0
for w in "${selected[@]}"; do
  "$build/lesslog_bench" --workload "$w" --out "$build/results" \
    ${args[@]+"${args[@]}"} || status=$?
done
exit "$status"
