#!/usr/bin/env bash
# The benchmark's one command. Builds bench/ (a package of its own) and runs it.
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run in this process; the last line of stdout is the result JSON
#       (the BENCHMARK.json contract). --trace 0: end-to-end metrics,
#       --trace 1: per-layer metrics plus bench/out/trace.W.jsonl.
#   bench/run.sh [SEED] [--trace]
#       Every workload (the five of BENCHMARK.json and the ungated
#       cluster_affinity), each in its own process (clean peak RSS, clean
#       telemetry registry), seed 42 by default; with --trace each workload
#       is repeated once traced. Prints every metric by name with its unit,
#       writes bench/out/runset.SEED.jsonl and appends it to
#       bench/history.jsonl keyed by `git rev-parse HEAD`.
#   bench/run.sh --check
#       Every workload at ~1/10 size; asserts that each metric named in
#       BENCHMARK.json is emitted exactly once with a finite value.
#   bench/run.sh --compare A.jsonl B.jsonl
#       Per workload x end-to-end metric: both medians, the relative
#       difference, the bound, and agree / regressed / unresolved.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
manifest="$root/BENCHMARK.json"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
bin="$CARGO_TARGET_DIR/release/astro-perfbench"
out="$here/out"

# Path dependencies only, so the build needs no network.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

case "${1:-}" in
--workload)
    exec "$bin" --out "$out" "$@"
    ;;
--compare)
    [ $# -eq 3 ] || { echo "usage: run.sh --compare A.jsonl B.jsonl" >&2; exit 2; }
    exec "$bin" compare "$manifest" "$2" "$3"
    ;;
--check)
    mkdir -p "$out"
    : >"$out/check.jsonl"
    # Two at a time: the machine this was sized on has two cores.
    "$bin" workloads | xargs -P 2 -I{} sh -c \
        '"$0" --out "$1" --workload {} --seed 42 --seconds 1 --smoke 2>/dev/null | tail -n 1 >>"$1/check.jsonl"' \
        "$bin" "$out"
    exec "$bin" check "$manifest" "$out/check.jsonl"
    ;;
esac

seed=42
trace=0
for arg in "$@"; do
    case "$arg" in
    --trace) trace=1 ;;
    [0-9]*) seed="$arg" ;;
    *) echo "run.sh: unknown argument $arg" >&2; exit 2 ;;
    esac
done
seconds="$("$bin" manifest | sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p')"
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
mkdir -p "$out"
runset="$out/runset.$seed.jsonl"
: >"$runset"
status=0
for w in $("$bin" workloads); do
    result="$("$bin" --out "$out" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)" || status=1
    layers=null
    if [ "$trace" = 1 ]; then
        layers="$("$bin" --out "$out" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1)" || status=1
    fi
    printf '{"commit": "%s", "nproc": %s, "seed": %s, "seconds": %s, "workload": "%s", "result": %s, "layers": %s}\n' \
        "$commit" "$(nproc)" "$seed" "$seconds" "$w" "$result" "$layers" >>"$runset"
done
cat "$runset" >>"$here/history.jsonl"
echo "run set: $runset (appended to bench/history.jsonl)" >&2
exit "$status"
