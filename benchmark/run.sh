#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given flags.
# Everything it writes (Go build cache, binary, traces, scratch artifacts)
# stays under benchmark/.build and benchmark/out.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .build
export GOCACHE="$PWD/.build/gocache" GOTOOLCHAIN=local
go build -o .build/pathrank-bench . >&2
exec .build/pathrank-bench "$@"
