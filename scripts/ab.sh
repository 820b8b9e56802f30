#!/usr/bin/env bash
# A/B two checkouts on one workload of the repo benchmark (BENCHMARK.json),
# the way a perf PR has to back its claim: alternating pairs, medians and
# quartiles per side, pairs won, and a check that nothing simulated moved.
#
# Usage: scripts/ab.sh <parent-checkout> <change-checkout> <workload> [pairs=10] [seed=1] [layers]
#
# Each side is built once into its own <checkout>/target (where its
# benchmark/run.sh looks by default), then run `pairs` times with
#   benchmark/run.sh --workload W --seed S --seconds 15 --trace 0
# odd pairs parent first, even pairs change first. This script drives the
# benchmark and does the arithmetic on what it prints; it times nothing
# itself. Raw output of every run is kept in a fresh temp directory,
# named at the end. Exits 1 if a run fails or a simulated value moved.
#
# With a trailing `layers`, one `--trace 1` pass per side follows the
# pairs and every per-layer metric whose two values differ is printed
# side by side — where the end-to-end difference sits — with a line on
# whether the counts that must repeat (sync rounds, events, router
# counters) did. One pass per side: host times in it are a reading, not
# a median. On mesh_scatter_sh2 the CPU count is printed first and the
# script exits 2 below 2 CPUs, where its numbers say nothing about
# parallel speed.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ] || { [ $# = 6 ] && [ "$6" != layers ]; }; then
  sed -n '2,23p' "$0" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seed="${5:-1}"
layers="${6:-}"
if [ "$workload" = mesh_scatter_sh2 ]; then
  echo "nproc: $(nproc)"
  if [ "$(nproc)" -lt 2 ]; then
    echo "mesh_scatter_sh2 needs 2 CPUs to measure anything" >&2
    exit 2
  fi
fi
unset CARGO_TARGET_DIR # each run.sh then builds into its checkout's own target/

runs="$(mktemp -d "${TMPDIR:-/tmp}/ab-$workload-XXXXXX")"

run() { # side checkout pair
  (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 0) \
    >"$runs/$1-$3.txt"
}

# run.sh's own build line and default target directory, ahead of the
# first timed run.
for side in "$parent" "$change"; do
  echo "building $side ..." >&2
  (cd "$side/benchmark" && CARGO_TARGET_DIR="$side/target" cargo build --release --offline --quiet --bins) >&2
done

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then run parent "$parent" "$i"; else run change "$change" "$i"; fi
  done
  echo "pair $i/$pairs done ($order)" >&2
done

# `metric value` lines of one run: every end-to-end metric of the result
# JSON (the last stdout line), plus the digest and the event count.
values() {
  tail -n 1 "$1" | grep -o '"[a-z_0-9]*":{"value":[^,}]*' | sed -E 's/"([^"]+)":\{"value":/\1 /'
  sed -n -E 's/^ *digest (0x[0-9a-f]+), ([0-9]+) events.*/digest \1\nevents \2/p' "$1"
  tail -n 1 "$1" | sed -E 's/.*"failed":([0-9]+).*/failed \1/'
}

host="setup_s wall_s events_per_s ops_per_s peak_rss_mb"
better() { sed -n -E "s/.*\"name\": \"$1\".*\"better\": \"([a-z]+)\".*\"bound\".*/\1/p" "$change/BENCHMARK.json"; }

echo
echo "== $workload, seed $seed, $pairs alternating pairs =="
echo "   parent: $parent"
echo "   change: $change"
printf '%-14s %-40s %-40s %8s %6s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "ratio" "won"
for metric in $host; do
  for i in $(seq 1 "$pairs"); do
    p="$(values "$runs/parent-$i.txt" | awk -v m="$metric" '$1 == m { print $2 }')"
    c="$(values "$runs/change-$i.txt" | awk -v m="$metric" '$1 == m { print $2 }')"
    echo "$p $c"
  done | awk -v metric="$metric" -v better="$(better "$metric")" '
    # Quartiles as Python statistics.quantiles(n=4) computes them (the
    # method benchmark/src/stats.rs uses), on a sorted array v[1..n].
    function quart(v, n, i,    m, j, d) {
      if (n == 1) return v[1]
      m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
      d = i * m - j * 4
      return (v[j] * (4 - d) + v[j + 1] * d) / 4
    }
    function sorted(src, dst, n,    i, j, t) {
      for (i = 1; i <= n; i++) dst[i] = src[i]
      for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
    }
    { n++; p[n] = $1; c[n] = $2
      if (better == "higher" ? $2 > $1 : $2 < $1) won++ }
    END {
      sorted(p, sp, n); sorted(c, sc, n)
      pm = quart(sp, n, 2); cm = quart(sc, n, 2)
      printf "%-14s %-40s %-40s %8.3f %3d/%d\n", metric,
        sprintf("%.6g [%.6g, %.6g]", pm, quart(sp, n, 1), quart(sp, n, 3)),
        sprintf("%.6g [%.6g, %.6g]", cm, quart(sc, n, 1), quart(sc, n, 3)),
        (pm != 0 ? cm / pm : 0), won, n
    }'
done

# Everything that is a pure function of the seed: one tuple per run.
tuple() { values "$1" | awk -v host="$host" 'BEGIN { split(host, h); for (i in h) skip[h[i]] = 1 } !($1 in skip) { printf "%s=%s ", $1, $2 }'; }
tuples="$(for f in "$runs"/parent-[0-9]*.txt "$runs"/change-[0-9]*.txt; do tuple "$f"; echo; done | sort | uniq -c)"
echo
status=0
if [ "$(echo "$tuples" | wc -l)" = 1 ]; then
  echo "digest, events, failed and every simulated metric: one identical tuple across all $((2 * pairs)) runs"
  echo "  ${tuples#*[0-9] }"
else
  echo "SIMULATED VALUES DIFFER between runs (count, tuple):"
  echo "$tuples"
  status=1
fi
if echo "$tuples" | grep -q 'failed=[1-9]'; then
  echo "SOME OPERATIONS FAILED"
  status=1
fi

if [ "$layers" = layers ]; then
  for side in parent change; do
    if [ "$side" = parent ]; then dir="$parent"; else dir="$change"; fi
    (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 1) \
      >"$runs/$side-layers.txt"
  done
  # `name value unit` lines of a traced run (the table it prints ahead of
  # the result JSON).
  table() { sed -n -E 's/^ +([a-z_0-9]+(\.[a-z_0-9]+)+) +(-?[0-9.]+) +([^ ]+)$/\1 \3 \4/p' "$1"; }
  # `name parent-value unit change-value unit`, one line per metric.
  both="$(join <(table "$runs/parent-layers.txt" | sort) <(table "$runs/change-layers.txt" | sort))"
  echo
  echo "== per-layer metrics that differ (one --trace 1 pass per side) =="
  printf '%-36s %16s %16s  %s\n' metric parent change unit
  echo "$both" | awk '$2 != $4 { printf "%-36s %16s %16s  %s\n", $1, $2, $4, $3 }'
  # Counts that are a function of the seed and the engine's round
  # structure: a change to how lanes wait must leave them alone.
  moved="$(echo "$both" |
    awk '($1 == "sim.shard.sync_rounds" || $1 == "sim.engine.events" || ($1 ~ /^net\.router\./ && $3 == "count")) && $2 != $4 { print $1 }')"
  if [ -z "$moved" ]; then
    echo "sim.shard.sync_rounds, sim.engine.events and every net.router.* counter: equal on both sides"
  else
    echo "COUNTS THAT MUST REPEAT MOVED: $moved"
    status=1
  fi
fi
echo "raw runs: $runs"
exit "$status"
