#!/usr/bin/env bash
# benchdiff.sh — the CI bench-regression gate: compare a benchmark run
# against the committed BENCH_*.json baseline and fail on regressions in
# the tracked hot-path benchmarks.
#
# Usage: scripts/benchdiff.sh [current.json]
#
#   current.json  a bench.sh-format result file; when omitted, the tracked
#                 benchmarks are run now (via scripts/bench.sh) into a temp
#                 file with the same methodology as the baseline.
#
# Environment:
#   BENCHDIFF_BASELINE   baseline file (default: newest BENCH_*.json)
#   BENCHDIFF_THRESHOLD  allowed regression in percent (default: 20)
#   BENCHDIFF_TRACKED    space-separated benchmark names to gate
#   BENCHDIFF_METRICS    metrics to gate (default: "allocs_per_op bytes_per_op")
#
# Why allocations, not nanoseconds, by default: the committed baseline was
# recorded on a different machine than the CI runner, so absolute ns/op is
# not comparable — but allocs/op and B/op are deterministic properties of
# the code path and identical on any machine. A hot-path change that breaks
# the zero-alloc workspace or scratch-arena invariants from the perf PRs
# shows up as an alloc regression. For same-machine A/B runs, add ns_per_op:
#   BENCHDIFF_METRICS="allocs_per_op bytes_per_op ns_per_op" scripts/benchdiff.sh old.json
#
# Noise guard: when either file was recorded with repeats (bench.sh
# BENCHCOUNT > 1), a metric only counts as regressed if it exceeds the
# threshold AND the absolute delta is larger than the two runs' combined
# sample standard deviations — a spread the repeats themselves produced
# is not a verdict. Files without _std keys (single-run baselines) get
# std 0 and behave exactly as before.
set -euo pipefail

cd "$(dirname "$0")/.."

THRESHOLD="${BENCHDIFF_THRESHOLD:-20}"
METRICS="${BENCHDIFF_METRICS:-allocs_per_op bytes_per_op}"
# The tracked hot paths: the search/scoring kernels the perf PRs optimized,
# plus CH construction (every set-up pays it; a map-backed witness search
# coming back shows as a ~60x allocs/op jump).
# Macro table benchmarks and parallel HTTP load tests are excluded — their
# single-iteration numbers are workload-level and noisy by design.
# Benchmarks newer than the committed baseline (e.g. the CH engine ones
# right after they land) are skipped with a note until a baseline that
# contains them is recorded — see the "not in baseline" branch below.
TRACKED="${BENCHDIFF_TRACKED:-BenchmarkDijkstra BenchmarkTopK5 BenchmarkDiversifiedTopK5 BenchmarkDiversifiedTopK5CH BenchmarkCHBuild BenchmarkCHQuery BenchmarkCHManyToMany BenchmarkWeightedJaccard BenchmarkNode2vecWalks BenchmarkGRUForwardBackward BenchmarkMapMatch BenchmarkRankQuery BenchmarkRankWithContext BenchmarkGemmNT BenchmarkScoreBatchFused BenchmarkRouterRankCoShard BenchmarkCrossShardQuery BenchmarkServeRankHit}"

BASELINE="${BENCHDIFF_BASELINE:-}"
if [[ -z "$BASELINE" ]]; then
    BASELINE="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
fi
if [[ -z "$BASELINE" || ! -f "$BASELINE" ]]; then
    echo "benchdiff: no baseline BENCH_*.json found" >&2
    exit 2
fi

CURRENT="${1:-}"
CLEANUP=""
if [[ -z "$CURRENT" ]]; then
    # Re-run only the tracked benchmarks, with bench.sh's methodology
    # (quick world, 1 iteration) so the comparison is apples to apples —
    # including the baseline's repeat count: repeats after the first run
    # against warm sync.Pools, so a cold single run and a repeats-mean
    # baseline disagree on allocs/op by construction, not regression.
    BASECOUNT="$(grep -o '"runs": [0-9]*' "$BASELINE" | head -1 | tr -dc 0-9 || true)"
    PATTERN="^($(echo "$TRACKED" | tr ' ' '|'))$"
    CURRENT="$(mktemp)"
    CLEANUP="$CURRENT"
    trap 'rm -f "$CLEANUP"' EXIT
    echo "benchdiff: running tracked benchmarks (count=${BENCHCOUNT:-${BASECOUNT:-1}})..." >&2
    BENCHCOUNT="${BENCHCOUNT:-${BASECOUNT:-1}}" scripts/bench.sh "$CURRENT" "$PATTERN" >&2
fi

echo "benchdiff: baseline=$BASELINE current=$CURRENT threshold=${THRESHOLD}% metrics=[$METRICS]"

awk -v tracked="$TRACKED" -v metrics="$METRICS" -v threshold="$THRESHOLD" \
    -v basefile="$BASELINE" -v curfile="$CURRENT" '
function parse(file, dest,    line, name, i, key, val, rest) {
    while ((getline line < file) > 0) {
        if (line !~ /"name"/) continue
        # Lines look like: {"name": "BenchmarkX", "iterations": 1, "ns_per_op": 123, ...}
        if (match(line, /"name": "[^"]+"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            sub(/-[0-9]+$/, "", name)   # strip any -GOMAXPROCS suffix
        } else continue
        rest = line
        while (match(rest, /"[A-Za-z_][A-Za-z0-9_]*": *[-0-9.eE+]+/)) {
            kv = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            split(kv, parts, /": */)
            key = parts[1]; gsub(/"/, "", key)
            val = parts[2] + 0
            dest[name "." key] = val
            dest["has." name] = 1
        }
    }
    close(file)
}
BEGIN {
    parse(basefile, base)
    parse(curfile, cur)
    nt = split(tracked, T, /[ \t]+/)
    nm = split(metrics, M, /[ \t]+/)
    fails = 0; compared = 0
    printf "%-34s %-16s %14s %14s %9s\n", "benchmark", "metric", "baseline", "current", "delta"
    for (i = 1; i <= nt; i++) {
        name = T[i]
        if (!(("has." name) in base)) {
            printf "%-34s %-16s %14s\n", name, "-", "not in baseline (skipped)"
            continue
        }
        if (!(("has." name) in cur)) {
            printf "%-34s %-16s %14s\n", name, "-", "MISSING FROM CURRENT RUN"
            fails++
            continue
        }
        for (j = 1; j <= nm; j++) {
            m = M[j]
            bkey = name "." m
            if (!(bkey in base) || !(bkey in cur)) continue
            b = base[bkey]; c = cur[bkey]
            bstd = ((bkey "_std") in base) ? base[bkey "_std"] : 0
            cstd = ((bkey "_std") in cur) ? cur[bkey "_std"] : 0
            compared++
            if (b == 0) { delta = (c == 0 ? 0 : 1e9) } else { delta = (c - b) / b * 100 }
            verdict = ""
            if (delta > threshold + 0) {
                if (c - b > bstd + cstd) {
                    verdict = "  REGRESSION"; fails++
                } else {
                    verdict = "  within noise (std " sprintf("%g", bstd + cstd) ")"
                }
            }
            printf "%-34s %-16s %14g %14g %+8.1f%%%s\n", name, m, b, c, delta, verdict
        }
    }
    if (compared == 0) {
        print "benchdiff: nothing compared — tracked benchmarks missing from both files" > "/dev/stderr"
        exit 2
    }
    if (fails > 0) {
        printf "benchdiff: FAIL — %d metric(s) regressed more than %s%%\n", fails, threshold > "/dev/stderr"
        exit 1
    }
    print "benchdiff: OK"
}'
