#!/usr/bin/env bash
# run_all.sh — the paper-grade experiment grid: build the binaries, train
# a model on a synthetic world, then drive every configuration in
# experiments.json with pathrank-load, repeating each one N times, and
# aggregate the runs into CSV plus Markdown/LaTeX summary tables with
# mean and sample standard deviation.
#
# Usage: scripts/paper/run_all.sh [output-dir]
#
#   output-dir   where the per-run JSON reports and the aggregated
#                results.csv / summary.{csv,md,tex} land
#                (default: paper-results/ in the repo root)
#
# Environment overrides (CI smoke uses these to shrink the run):
#   PAPER_REPEATS    repeats per configuration (default: experiments.json)
#   PAPER_DURATION   load duration per run     (default: experiments.json)
#   PAPER_RATE       target request rate       (default: experiments.json)
#   PAPER_ROWS/PAPER_COLS/PAPER_DRIVERS  synthetic world size (default 12/12/30)
#   PAPER_EPOCHS     training epochs for the served model (default 3)
#
# Each run restarts pathrank-serve from the same artifact, so repeats are
# independent cold starts; pathrank-load's seed advances per repeat, so
# the repeats sample different arrival realizations of the same mix.
set -euo pipefail

cd "$(dirname "$0")/../.."
OUT="${1:-paper-results}"
CONFIG="scripts/paper/experiments.json"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "paper: building binaries..."
go build -o "$WORK/netgen" ./cmd/netgen
go build -o "$WORK/pathrank-train" ./cmd/pathrank-train
go build -o "$WORK/pathrank-serve" ./cmd/pathrank-serve
go build -o "$WORK/pathrank-load" ./cmd/pathrank-load
go build -o "$WORK/analyze" ./scripts/paper/analyze

# The grid definition is the single source of truth; the shell only
# orchestrates what analyze -plan tells it to.
PLAN="$WORK/plan.tsv"
"$WORK/analyze" -config "$CONFIG" -plan > "$PLAN"
read -r _ REPEATS DURATION RATE SEED < <(grep '^settings' "$PLAN" | cut -f2-)
REPEATS="${PAPER_REPEATS:-$REPEATS}"
DURATION="${PAPER_DURATION:-$DURATION}"
RATE="${PAPER_RATE:-$RATE}"

echo "paper: generating world and training the served model..."
"$WORK/netgen" -rows "${PAPER_ROWS:-12}" -cols "${PAPER_COLS:-12}" \
    -drivers "${PAPER_DRIVERS:-30}" -trips 4 -seed 1 \
    -out "$WORK/net.gob" -trips-out "$WORK/trips.gob"
"$WORK/pathrank-train" -net "$WORK/net.gob" -trips "$WORK/trips.gob" \
    -epochs "${PAPER_EPOCHS:-3}" -seed 1 -artifact "$WORK/model.prart"

mkdir -p "$OUT"

# wait_listen LOGFILE prints the server's bound address once it appears.
wait_listen() {
    local logfile="$1" addr="" i
    for i in $(seq 1 100); do
        addr="$(sed -n 's/.*listening on \(.*\)/\1/p' "$logfile" | head -1)"
        [[ -n "$addr" ]] && { echo "$addr"; return 0; }
        if [[ -n "$SERVER_PID" ]] && ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "paper: server died during startup:" >&2
            cat "$logfile" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "paper: server never reported its listen address" >&2
    cat "$logfile" >&2
    return 1
}

while IFS=$'\t' read -r tag NAME SERVE_ARGS LOAD_ARGS; do
    [[ "$tag" == "exp" ]] || continue
    for rep in $(seq 0 $((REPEATS - 1))); do
        LOG="$WORK/serve-$NAME-$rep.log"
        # shellcheck disable=SC2086 — the flag lists are word-split on purpose
        "$WORK/pathrank-serve" -artifact "$WORK/model.prart" -addr 127.0.0.1:0 \
            $SERVE_ARGS >"$LOG" 2>&1 &
        SERVER_PID=$!
        ADDR="$(wait_listen "$LOG")"
        echo "paper: $NAME repeat $rep on $ADDR (${RATE} req/s for $DURATION)"
        # shellcheck disable=SC2086
        "$WORK/pathrank-load" -addr "http://$ADDR" -rate "$RATE" \
            -duration "$DURATION" -seed $((SEED + rep)) -json \
            $LOAD_ARGS > "$OUT/${NAME}_rep${rep}.json" 2>"$WORK/load-$NAME-$rep.log" \
            || { cat "$WORK/load-$NAME-$rep.log" >&2; exit 1; }
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
        SERVER_PID=""
    done
done < "$PLAN"

"$WORK/analyze" -config "$CONFIG" -results "$OUT" -repeats "$REPEATS"
echo "paper: done — see $OUT/summary.md"
