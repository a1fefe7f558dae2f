#!/bin/sh
# A bench harness must refuse a count it cannot honour: a negative or
# suffixed number (which std::stoull would wrap or cut short), a value
# wider than its field, and a worker count above the pool ceiling, from
# --threads or COPRA_THREADS. Each must exit 1 with a "fatal:" usage
# error and print nothing to stdout, i.e. fail during parsing, before
# any work (or any of the requested threads) starts.
#
# Usage: bench_rejects_bad_counts.sh <bench-binary>

set -u

BIN="$1"
ERR=$(mktemp)
OUT=$(mktemp)
trap 'rm -f "$ERR" "$OUT"' EXIT
failed=0

expect_rejected() {
    "$@" > "$OUT" 2> "$ERR"
    rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q '^fatal: ' "$ERR" || [ -s "$OUT" ]; then
        echo "not rejected as a usage error (exit $rc): $*"
        cat "$ERR"
        failed=1
    fi
}

expect_rejected "$BIN" --seed -1
expect_rejected "$BIN" --branches 20k
expect_rejected "$BIN" --branches 18446744073709551616
expect_rejected "$BIN" --depth 4294967312
expect_rejected "$BIN" --pool 4294967296
expect_rejected "$BIN" --threads -1
expect_rejected "$BIN" --threads 1025
expect_rejected "$BIN" --threads 4294967297
expect_rejected env COPRA_THREADS=5000 "$BIN" --threads 0

if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "every malformed or oversized count was rejected while parsing"
exit 0
