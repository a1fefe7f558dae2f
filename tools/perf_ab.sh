#!/usr/bin/env bash
# The performance gate: an interleaved perfbench A/B of this working
# tree against a base revision, on one machine.
#
# Usage: tools/perf_ab.sh <base-rev>
#
# Checks <base-rev> out into a temporary git worktree. For every
# workload listed in BENCHMARK.json it then runs PAIRS pairs of
# `perfbench/run.py --trace 0` (seeds 0..PAIRS-1, RUN_SECONDS each),
# one run in the base tree and one in this tree, alternating which
# side goes first. Each tree builds and runs its own perfbench, and
# its runs append to base.jsonl or change.jsonl. This tree's
# `run.py --compare base.jsonl change.jsonl` table goes to stdout;
# progress goes to stderr.
#
# Exit status 1 when any verdict is WORSE or any run of this tree
# reports "correct": false. "within bound", "better" and "unresolved"
# pass: unresolved means the runs spread too widely to judge, and
# failing on it would make the gate fail at random.
#
# Sourcing the script only defines perf_ab_decide, the pass/fail step
# (tests/perf_ab_decide_test.sh feeds it canned output).

PAIRS=5
RUN_SECONDS=5

# perf_ab_decide <compare-output> <change.jsonl>: the gate's verdict.
perf_ab_decide()
{
    local status=0
    if ! grep -Eq 'within bound|better|unresolved|WORSE' "$1"; then
        echo "perf_ab: no verdicts in $1" >&2
        status=1
    fi
    if grep -F WORSE "$1" >&2; then
        echo "perf_ab: FAIL: a metric is worse beyond its bound" >&2
        status=1
    fi
    if [[ ! -s $2 ]]; then
        echo "perf_ab: no change-side records in $2" >&2
        status=1
    elif grep -F '"correct": false' "$2" >&2; then
        echo "perf_ab: FAIL: a change-side run failed its checks" >&2
        status=1
    fi
    return "$status"
}

perf_ab_main()
{
    if [[ $# -ne 1 ]]; then
        echo "usage: tools/perf_ab.sh <base-rev>" >&2
        return 2
    fi
    local root base scratch
    root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
    base=$(git -C "$root" rev-parse --verify "$1^{commit}")
    scratch=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
    # shellcheck disable=SC2064  # expand the paths now
    trap "git -C '$root' worktree remove --force '$scratch/base' \
        2>/dev/null; rm -rf '$scratch'; git -C '$root' worktree prune" EXIT
    git -C "$root" worktree add --quiet --detach "$scratch/base" "$base"

    local workloads
    workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$root/BENCHMARK.json")

    # One counter across workloads, so each side goes first equally often.
    local workload seed side tree log pair=0
    for workload in $workloads; do
        for ((seed = 0; seed < PAIRS; seed++)); do
            local order=(base change)
            ((pair++ % 2)) && order=(change base)
            for side in "${order[@]}"; do
                tree=$root
                [[ $side == base ]] && tree=$scratch/base
                log=$scratch/$side-$workload-$seed.log
                echo "perf_ab: $workload seed $seed: $side" >&2
                # Unset so each tree builds into its own .bench_build/.
                if ! (cd "$tree" && env -u CARGO_TARGET_DIR python3 \
                        perfbench/run.py --workload "$workload" \
                        --seed "$seed" --seconds "$RUN_SECONDS" \
                        --trace 0 --out "$scratch/$side.jsonl" > "$log"); then
                    tail -n 20 "$log" >&2
                    echo "perf_ab: FAIL: the $side run did not finish" >&2
                    return 1
                fi
            done
        done
    done

    (cd "$root" && python3 perfbench/run.py --compare \
        "$scratch/base.jsonl" "$scratch/change.jsonl") > "$scratch/compare.txt"
    cat "$scratch/compare.txt"
    perf_ab_decide "$scratch/compare.txt" "$scratch/change.jsonl"
}

if [[ ${BASH_SOURCE[0]} == "$0" ]]; then
    set -euo pipefail
    perf_ab_main "$@"
fi
