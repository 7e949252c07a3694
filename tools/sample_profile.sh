#!/usr/bin/env bash
# Where does a process spend its CPU? A sampling profile for hosts where
# perf and gprofng collect nothing.
#
#   tools/sample_profile.sh [--top N] [--us N] [--keep DIR] -- COMMAND [ARGS...]
#
# Builds tools/sample_profile.c with the system C compiler into an
# LD_PRELOAD library, runs COMMAND under it (SIGPROF every --us
# microseconds of CPU, default 1000; the kernel tick caps the real rate),
# then symbolizes the samples with addr2line and prints the top N
# (default 25) of:
#   - self time by function (where the interrupted instruction was),
#   - self time by source line,
#   - inclusive time by function, from the frame-pointer walks, when the
#     build keeps frame pointers (-fno-omit-frame-pointer); otherwise
#     the walks are empty and the table is skipped.
# Every process COMMAND starts (through exec) writes its own samples;
# the report covers the one with the most. --keep DIR keeps the raw
# .samples/.maps files there. Function names come from the symbol table;
# source lines need debug info (-g, as in a RelWithDebInfo build).
# Example, the million-peer swarm:
#
#   tools/sample_profile.sh -- build-bench/lesslog_bench \
#       --workload swarm_get_m20_s4 --seconds 6 --out /tmp/prof
#
# Needs cc and addr2line; x86-64 Linux.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
top=25
us=1000
keep=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --top) top="$2"; shift 2 ;;
    --us) us="$2"; shift 2 ;;
    --keep) keep="$2"; shift 2 ;;
    --) shift; break ;;
    *) break ;;
  esac
done
if [[ $# -eq 0 ]]; then
  echo "usage: $0 [--top N] [--us N] [--keep DIR] -- COMMAND [ARGS...]" >&2
  exit 2
fi
for tool in cc addr2line; do
  if ! command -v "$tool" >/dev/null; then
    echo "sample_profile: needs $tool" >&2
    exit 2
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/sample_profile.so" "$root/tools/sample_profile.c"

status=0
LD_PRELOAD="$work/sample_profile.so${LD_PRELOAD:+:$LD_PRELOAD}" \
  SAMPLE_PROFILE_OUT="$work/prof" SAMPLE_PROFILE_US="$us" "$@" || status=$?
if [[ -n "$keep" ]]; then
  mkdir -p "$keep"
  cp "$work"/prof.* "$keep"/ 2>/dev/null || true
fi

samples=$(grep -c -H '^s ' "$work"/prof.*.samples 2>/dev/null |
          sort -t: -k2 -rn | awk -F: 'NR == 1 { print $1 }')
if [[ -z "$samples" ]]; then
  echo "sample_profile: no samples written (exit status $status)" >&2
  exit 1
fi
total=$(grep -c '^s ' "$samples")
pid=$(basename "$samples" .samples)
echo "sample_profile: $total samples from pid ${pid#prof.}" \
     "(command exit status $status)"

# Symbolize each object's addresses in one addr2line call. The library
# already wrote every address in the form addr2line takes for its object.
: > "$work/symbols"
while read -r _ id object; do
  [[ -r "$object" ]] || continue
  grep '^s ' "$samples" | tr ' ' '\n' | grep "^$id:" | sort -u \
    > "$work/keys" || true
  [[ -s "$work/keys" ]] || continue
  sed "s/^$id:/0x/" "$work/keys" | addr2line -f -C -e "$object" |
    paste - - | paste "$work/keys" - >> "$work/symbols"
done < <(grep '^obj ' "$samples")

# symbols: ID:ADDRESS <TAB> function <TAB> file:line
awk -F'\t' -v top="$top" -v total="$total" '
  function report(title, counts, limit,   k, m, i, best, bestk) {
    printf "\n%s\n", title
    m = 0
    for (k in counts) m++
    for (i = 1; i <= limit && i <= m; i++) {
      best = -1
      for (k in counts) if (counts[k] > best) { best = counts[k]; bestk = k }
      printf "%6.2f%%  %7d  %s\n", 100 * best / total, best, bestk
      delete counts[bestk]
    }
  }
  NR == FNR {
    fn[$1] = $2
    line = $3
    sub(/ \(discriminator [0-9]+\)/, "", line)
    where[$1] = line
    next
  }
  $1 == "s" {
    n = split($0, pcs, " ")
    f = (pcs[2] in fn) ? fn[pcs[2]] : "??"
    self_fn[f]++
    self_line[f "  " ((pcs[2] in where) ? where[pcs[2]] : "??")]++
    if (n > 2) walked++
    split("", in_sample)
    for (i = 2; i <= n; i++) {
      g = (pcs[i] in fn) ? fn[pcs[i]] : "??"
      if (!(g in in_sample)) { in_sample[g] = 1; incl[g]++ }
    }
  }
  END {
    report("self time by function", self_fn, top)
    report("self time by source line", self_line, top)
    if (walked > total / 2) {
      report("inclusive time by function (frame-pointer walk, 5 frames)",
             incl, top)
    } else {
      printf "\n(%d of %d samples have no frame-pointer walk: inclusive " \
             "time needs -fno-omit-frame-pointer)\n", total - walked, total
    }
  }' "$work/symbols" FS=' ' "$samples"
