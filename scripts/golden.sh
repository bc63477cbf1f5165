#!/usr/bin/env bash
# golden.sh — regenerate bench_full_output.txt and compare it with the
# committed copy, byte for byte.
#
# Every number in that file is virtual time, so it may only change when a
# PR changes the model on purpose. This is the gate for any change to
# internal/eventsim or to a poll body: the order in which actors run at
# one picosecond-equal instant is invisible to most tests and visible here
# (Figure 7's per-port goodput moved in the second decimal when a
# prototype of the lazy idle polls let one port core overtake another).
# About a minute of CPU, so CI runs it as its own job beside check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
go run ./cmd/dhl-bench all > "$out"
if ! cmp -s "$out" bench_full_output.txt; then
    echo "dhl-bench all no longer reproduces bench_full_output.txt:" >&2
    diff "$out" bench_full_output.txt | head -40 >&2
    exit 1
fi
echo "bench_full_output.txt reproduced byte for byte"
