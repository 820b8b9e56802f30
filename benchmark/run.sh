#!/usr/bin/env bash
# The repo benchmark (see README.md; the contract is ../BENCHMARK.json).
#
# One workload, as the benchmark driver calls it — builds, runs, and the
# last line of stdout is the result as one JSON object:
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The whole suite, each workload in its own fresh process, one after the
# other:
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--repeat K] [--layers]
# writes benchmark/out/results-<k>.jsonl (plus layers-*.json and
# spans-*.json with --layers); with --repeat 2 or more it runs `compare`
# on the first two result files. Exits non-zero on any failed check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver sets CARGO_TARGET_DIR relative to the directory it calls from.
case "${CARGO_TARGET_DIR:-}" in
  "") target="$here/../target" ;;
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build quietly: stdout belongs to the result.
(cd "$here" && cargo build --release --offline --quiet --bins) >&2
bin="$target/release/bluedbm-benchmark"

# What the numbers were measured on, for `meta` (the driver's checkout is
# not a git repository).
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_GIT_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" "$@"
  fi
done

seed=() seconds=() smoke=() repeat=1 layers=0
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=(--seed "$2"); shift 2 ;;
    --seconds) seconds=(--seconds "$2"); shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --layers) layers=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

out="$here/out"
mkdir -p "$out"
status=0
for k in $(seq 1 "$repeat"); do
  results="$out/results-$k.jsonl"
  rm -f "$results"
  for workload in $("$bin" list); do
    "$bin" --workload "$workload" ${seed[@]+"${seed[@]}"} ${seconds[@]+"${seconds[@]}"} ${smoke[@]+"${smoke[@]}"} --append "$results" | sed '$d' || status=1
    if [ "$layers" = 1 ]; then
      "$bin" --workload "$workload" ${seed[@]+"${seed[@]}"} ${smoke[@]+"${smoke[@]}"} --trace 1 --out "$out" | sed '$d' || status=1
    fi
  done
  echo "results: $results"
done
if [ "$repeat" -ge 2 ]; then
  "$target/release/compare" "$out/results-1.jsonl" "$out/results-2.jsonl" || status=1
fi
exit "$status"
