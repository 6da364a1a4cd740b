#!/usr/bin/env bash
# Prints the repository's size figures outside benchmark/, the ones the
# simplification PRs record in CHANGES.md: the non-test Go line count on
# the first line, the amd64 assembly (.s) line count on the second.
set -euo pipefail
cd "$(dirname "$0")/.."
count() {
    find . "$@" -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l | tr -d ' '
}
count -name '*.go' -not -name '*_test.go'
count -name '*_amd64.s'
