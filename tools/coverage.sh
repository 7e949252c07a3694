#!/usr/bin/env bash
# Two-pass coverage: which library functions does nothing but a test run?
#
#   cmake --preset coverage && cmake --build build-coverage -j
#   tools/coverage.sh [build-dir]        # default: build-coverage
#
# Pass 1 runs every caller outside tests/: the 17 deterministic sweeps at
# --quick (the names in bench/sweep_digests.txt), abl_scale --smoke, the
# examples, each lesslog_cli subcommand (serve driven by lesslog_loadgen
# on loopback) and lesslog_report --quick. gcov then reads the counters.
# Pass 2 runs the gtest binaries on top of the same counters and reads
# them again. The script prints the totals, then every lesslog:: function
# in src/ and include/ that ran only under tests or in neither pass, as
# file:line name.
#
# A function is one definition: a template counts once, and it ran when
# any of its instantiations ran. An inline function that no translation
# unit instantiates emits no code, so gcov cannot list it.
#
# benchmark/ is its own CMake project and is not a pass-1 caller here:
# grep it for a function before deleting one this script lists.
#
# Needs gcov from the compiler that built the tree (-j -t -m: GCC 12) and
# jq. Writes scratch files under a temporary directory it removes.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build-coverage"}
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  echo "coverage: no configured build at $build" >&2
  echo "  run: cmake --preset coverage && cmake --build build-coverage -j" >&2
  exit 2
fi
build=$(cd "$build" && pwd)
for tool in gcov jq; do
  if ! command -v "$tool" >/dev/null; then
    echo "coverage: needs $tool" >&2
    exit 2
  fi
done
if ! grep -q -- '--coverage' "$build/CMakeCache.txt"; then
  echo "coverage: $build was not built with --coverage" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT

run() {  # run <cmd...>: a pass-1 or pass-2 caller; its output is dropped
  if ! "$@" >"$work/out.txt" 2>&1; then
    echo "coverage: '$*' failed:" >&2
    tail -20 "$work/out.txt" >&2
    exit 1
  fi
}

# Emits "file<TAB>line<TAB>name<TAB>count" per function and
# "file<TAB>line<TAB><TAB>count" per line, for src/ and include/ only.
read_counts() {
  find "$build" -name '*.gcno' -print0 |
    (cd "$work" && xargs -0 gcov -j -t -m 2>/dev/null) |
    jq -r --arg src "$root/src/" --arg inc "$root/include/" '
      .files[]
      | select((.file | startswith($src)) or (.file | startswith($inc)))
      | .file as $f
      | ((.functions[] | select(.demangled_name | contains("lesslog::"))
          | [$f, .start_line, .demangled_name, .execution_count]),
         (.lines[] | [$f, .line_number, "", .count]))
      | @tsv' |
    sed "s|^$root/||"
}

find "$build" -name '*.gcda' -delete

# ---- Pass 1: every caller outside tests/ ---------------------------------
echo "coverage: pass 1 (callers outside tests/)" >&2
while read -r name _; do
  [[ -z "$name" || "$name" == \#* ]] && continue
  run "$build/bench/$name" --quick
done <"$root/bench/sweep_digests.txt"
run "$build/bench/abl_scale" --smoke

for ex in "$build"/examples/*; do
  [[ -x "$ex" ]] || continue
  case "$(basename "$ex")" in
    checkpoint_restore) run "$ex" "$work/checkpoint.bin" ;;
    protocol_trace) run "$ex" --jsonl "$work/trace.jsonl" ;;
    *) run "$ex" ;;
  esac
done

cli="$build/tools/lesslog_cli"
run "$cli" experiment --m 8 --rate 4000
run "$cli" catalog --m 8 --files 16 --rate 4000
run "$cli" churn --m 6 --nodes 40 --files 8 --duration 60
run "$cli" tree --m 4 --root 4 --dead 0,5 --route 8
run "$cli" inspect --snapshot "$work/checkpoint.bin"
run "$cli" metrics
run "$cli" chaos --epochs 2 --artifact "$work/chaos.json"
run "$cli" chaos --replay "$work/chaos.json"
hosts="serve:0-31:127.0.0.1:47151;serve:32-62:127.0.0.1:47152"
hosts="$hosts;client:63:127.0.0.1:47153"
"$cli" serve --hosts "$hosts" --self 0 --m 6 --b 2 --duration 4 \
  >"$work/s0.txt" 2>&1 &
s0=$!
"$cli" serve --hosts "$hosts" --self 1 --m 6 --b 2 --duration 4 \
  >"$work/s1.txt" 2>&1 &
s1=$!
run "$build/tools/lesslog_loadgen" --hosts "$hosts" --self 2 --m 6 --b 2 \
  --files 24 --rate 200 --duration 1
for pid in "$s0" "$s1"; do
  wait "$pid" || { echo "coverage: a serve failed" >&2; exit 1; }
done
run "$build/tools/lesslog_report" --quick --seeds 1 --out "$work/REPORT.md"
read_counts >"$work/pass1.tsv"

# ---- Pass 2: the gtest binaries, on top of pass 1 ------------------------
echo "coverage: pass 2 (gtest binaries)" >&2
for t in "$build"/tests/lesslog_*_tests; do
  (cd "$build/tests" && run "$t" --gtest_brief=1)
done
read_counts >"$work/pass2.tsv"

# ---- Report ----------------------------------------------------------------
# A definition is keyed by file:line; it ran in a pass when any of its
# instances did. Its label is the shortest name at that line, which is
# the plain function rather than a lambda or an instantiation inside it.
awk -F'\t' '
  FNR == 1 { pass++ }
  {
    key = $1 ":" $2
    if ($3 == "") {
      lines[key] = 1
      if ($4 > 0) line_ran[pass, key] = 1
      next
    }
    fns[key] = 1
    if (!(key in label) || length($3) < length(label[key])) label[key] = $3
    if ($4 > 0) fn_ran[pass, key] = 1
  }
  END {
    for (k in fns) {
      total++
      if ((1, k) in fn_ran) { nontest++; continue }
      if ((2, k) in fn_ran) { only[++n_only] = k; continue }
      neither[++n_neither] = k
    }
    for (k in lines) {
      n_lines++
      if ((1, k) in line_ran) continue
      if ((2, k) in line_ran) lines_only++; else lines_neither++
    }
    printf "functions: %d in src/ and include/\n", total
    printf "  ran under a caller outside tests/: %d\n", nontest
    printf "  ran only under tests:              %d\n", n_only
    printf "  ran in neither pass:               %d\n", n_neither
    printf "lines: %d instrumented\n", n_lines
    printf "  ran only under tests:              %d\n", lines_only
    printf "  ran in neither pass:               %d\n", lines_neither
    print "\nran only under tests:"
    for (i = 1; i <= n_only; i++)
      print "  " only[i] " " label[only[i]] | "sort -V"
    close("sort -V")
    print "\nran in neither pass:"
    for (i = 1; i <= n_neither; i++)
      print "  " neither[i] " " label[neither[i]] | "sort -V"
    close("sort -V")
  }' "$work/pass1.tsv" "$work/pass2.tsv"
