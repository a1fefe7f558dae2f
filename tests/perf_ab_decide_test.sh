#!/usr/bin/env bash
# The pass/fail step of the performance gate (tools/perf_ab.sh), fed
# canned `perfbench/run.py --compare` tables and --out records.
#
# Usage: tests/perf_ab_decide_test.sh <path to tools/perf_ab.sh>
set -u

# shellcheck source=../tools/perf_ab.sh
source "$1"

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

header='workload         metric                                A median [q1, q3]        B median [q1, q3] B wins   bound  verdict'
row()
{
    printf '%-16s %-30s %24s %24s %6s %7s  %s\n' split-warm "$1" \
        '0.44 [0.402, 0.455]' '0.458 [0.39, 0.482]' 2/5 0.25 "$2"
}
record()
{
    printf '{"workload": "split-warm", "seed": %d, "trace": 0, "result": {"correct": %s, "attempted": 40, "failed": %d, "metrics": {"wall_s": {"value": 0.45, "unit": "s"}}}, "context": {}}\n' \
        "$1" "$2" "$3"
}

printf '%s\n' "$header" > "$dir/header-only.txt"
{
    echo "$header"
    row wall_s 'within bound (spread 0.121/0.201)'
    row cpu_s 'unresolved (spread 0.310/0.180 > bound)'
    row setup_s 'B better in every run'
} > "$dir/pass.txt"
{
    echo "$header"
    row wall_s 'within bound (spread 0.121/0.201)'
    row cpu_s 'B WORSE beyond bound'
} > "$dir/worse.txt"
{
    echo "$header"
    row wall_s 'B WORSE in every run'
} > "$dir/worse-every.txt"
{ record 0 true 0; record 1 true 0; } > "$dir/correct.jsonl"
{ record 0 true 0; record 1 false 2; } > "$dir/incorrect.jsonl"
: > "$dir/empty.jsonl"

failures=0
expect()
{
    local want=$1 label=$2 got=0
    perf_ab_decide "$dir/$3" "$dir/$4" 2> "$dir/stderr" || got=1
    if [[ $got -ne $want ]]; then
        echo "FAIL: $label: perf_ab_decide returned $got, expected $want"
        cat "$dir/stderr"
        failures=$((failures + 1))
    else
        echo "ok: $label"
    fi
}

expect 0 "within bound, unresolved and better pass" pass.txt correct.jsonl
expect 1 "WORSE beyond bound fails" worse.txt correct.jsonl
expect 1 "WORSE in every run fails" worse-every.txt correct.jsonl
expect 1 'a change record with "correct": false fails' pass.txt \
    incorrect.jsonl
expect 1 "a table without verdicts fails" header-only.txt correct.jsonl
expect 1 "no change-side records fails" pass.txt empty.jsonl

exit $((failures > 0))
