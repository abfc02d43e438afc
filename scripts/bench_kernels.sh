#!/usr/bin/env bash
set -euo pipefail

# scripts/bench_kernels.sh — run the kernel hot-path benchmarks and emit
# BENCH_kernels.json: a machine-readable record of {name, ns/op,
# allocs/op, ns/point, points/s} for the compact-layout evaluation and
# hierarchization kernels, so the perf trajectory is diffable across PRs.
#
# Every benchmark runs 5 times (-count 5). Each row records the
# median of every metric, the number of runs ("count"), and the
# per-metric "min" and "max" over the runs, so a change can be judged
# against the spread of the host that recorded it. Names drop the
# -GOMAXPROCS suffix ("cpus" records it), so rows line up across hosts.
#
# Usage:
#   scripts/bench_kernels.sh                  # refresh the "current" run
#   scripts/bench_kernels.sh --as-baseline    # also stamp the run as the stored baseline
#   BENCHTIME=1s  scripts/bench_kernels.sh    # longer per-bench time (steadier numbers)
#   BENCHTIME=1x  scripts/bench_kernels.sh    # CI smoke: one iteration per bench
#   PAPERSCALE=1  scripts/bench_kernels.sh    # include the d=10 level-11 127.5M-point
#                                             # hierarchization (per worker count; minutes)
#
# The *Scaling benches record per-worker-count ns/pt (w1, w2, w4, w8)
# so the trajectory captures how the static decomposition scales; the
# run's "cpus" field says how many cores those numbers had to work with.
#
# The output keeps two runs side by side: "baseline" (the run last
# stamped with --as-baseline — for this repo, the pre-table-driven
# kernels) and "current". Requires jq. Schema 2 added the per-row
# count/min/max; a baseline stamped under schema 1 keeps its single-run
# rows.

cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_kernels.json}
BENCHTIME=${BENCHTIME:-500ms}
PATTERN=${PATTERN:-'^(BenchmarkKernelEval|BenchmarkKernelHier|BenchmarkKernelHierScaling|BenchmarkKernelEvalScaling|BenchmarkPaperscaleHier|BenchmarkFig9Hierarchization|BenchmarkFig9Evaluation)$'}
# PAPERSCALE=1 un-skips BenchmarkPaperscaleHier (it is gated behind
# SG_PAPERSCALE in bench_test.go; a skipped bench emits no lines).
if [ "${PAPERSCALE:-0}" = 1 ]; then
    export SG_PAPERSCALE=1
fi
AS_BASELINE=0
if [ "${1:-}" = "--as-baseline" ]; then
    AS_BASELINE=1
fi

command -v jq >/dev/null || { echo "bench_kernels.sh: jq is required" >&2; exit 1; }

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count 5 -timeout 120m . | tee "$raw"

# Each bench line is: Name N  v1 unit1  v2 unit2 ...; units become JSON
# keys (ns/op -> ns_per_op, points/s -> points_per_s, ...). The runs of
# one name then fold into a row of medians plus min/max.
results=$(awk '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        printf "{\"name\":\"%s\",\"iters\":%s", name, $2
        for (i = 3; i + 1 <= NF; i += 2) {
            key = $(i + 1)
            gsub(/\//, "_per_", key)
            gsub(/[^A-Za-z0-9_]/, "_", key)
            printf ",\"%s\":%s", key, $i
        }
        print "}"
    }
' "$raw" | jq -s '
    def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                       else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    def fold(f): . as $runs | reduce ($runs | map(keys) | add | unique - ["name"])[] as $k
                 ({}; .[$k] = ($runs | map(.[$k] | values) | f));
    group_by(.name) | map({name: .[0].name, count: length} + fold(median)
                          + {min: fold(min), max: fold(max)})')

if [ "$(jq 'length' <<<"$results")" -eq 0 ]; then
    echo "bench_kernels.sh: no benchmark lines parsed (pattern \"$PATTERN\")" >&2
    exit 1
fi

run=$(jq -n \
    --arg go "$(go env GOVERSION)" \
    --arg platform "$(go env GOOS)/$(go env GOARCH)" \
    --arg benchtime "$BENCHTIME" \
    --arg date "$(date -u +%FT%TZ)" \
    --argjson cpus "$(nproc)" \
    --argjson results "$results" \
    '{go: $go, platform: $platform, benchtime: $benchtime, date: $date, cpus: $cpus, results: $results}')

if [ "$AS_BASELINE" = 1 ] || [ ! -s "$OUT" ] || ! jq -e '.baseline' "$OUT" >/dev/null 2>&1; then
    baseline=$run
else
    baseline=$(jq '.baseline' "$OUT")
fi

jq -n --argjson baseline "$baseline" --argjson current "$run" \
    '{schema: 2, baseline: $baseline, current: $current}' > "$OUT"
echo "wrote $OUT ($(jq '.current.results | length' "$OUT") benchmarks)"
