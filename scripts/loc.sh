#!/usr/bin/env bash
# Prints the repository's non-test Go line count outside benchmark/ — the
# size figure the simplification PRs record in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -print0 |
    xargs -0 wc -l | tail -n 1 | awk '{print $1}'
