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
# On a mismatch it names the sections that differ before the raw diff.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
go run ./cmd/dhl-bench all > "$out"
if ! cmp -s "$out" bench_full_output.txt; then
    echo "dhl-bench all no longer reproduces bench_full_output.txt. Sections that differ:" >&2
    # A section is an "=== title ===" line and what follows it up to the
    # next one; print the title of each whose text is not the same in both.
    awk '
        FNR == 1 { title = "" }
        /^=== .* ===$/ { title = $0; if (!(title in seen)) { seen[title]; order[++n] = title } }
        { text[FNR == NR, title] = text[FNR == NR, title] $0 "\n" }
        END {
            for (i = 1; i <= n; i++)
                if (text[1, order[i]] != text[0, order[i]]) print "  " order[i]
        }' bench_full_output.txt "$out" >&2
    echo "diff (< committed, > regenerated):" >&2
    diff bench_full_output.txt "$out" | head -40 >&2
    exit 1
fi
echo "bench_full_output.txt reproduced byte for byte"
