#!/usr/bin/env python3
"""copra benchmark: end-to-end and per-layer numbers for four workloads.

Run from the repository root:

  python3 perfbench/run.py --workload split-warm --seed 0 --seconds 20 --trace 0
  python3 perfbench/run.py --workload split-warm --seed 0 --seconds 20 --trace 1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --compare before.jsonl after.jsonl

A run builds perfbench/ (its own CMake project over ../src) into
.bench_build/, probes the host, builds the workload's traces into an
empty cache directory under .bench_work/ (set-up, timed), then repeats
the workload's pipeline over that cache for --seconds (steady pass,
timed) and checks every product. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones (README.md).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "copra_perfbench")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference_digests.txt")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPS = 3      # set-up runs at least this often, and for at least
SETUP_SECONDS = 3   # this long; the median is reported
SPECS = ["gshare", "pas", "if_gshare", "tage", "perceptron", "tournament"]
MODERN = {"tage", "perceptron", "tournament"}
PAPER_EIGHT = ["compress", "gcc", "go", "ijpeg", "m88ksim", "perl",
               "vortex", "xlisp"]


class BenchError(Exception):
    """The benchmark could not produce a result (build, crash, timeout)."""


def nproc():
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values) if values else 0.0


# --- building and running the measuring binary --------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("copra sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "perfbench-build.log"), "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "copra_perfbench", "-j", str(min(4, nproc()))])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=840)
            except subprocess.TimeoutExpired:
                raise BenchError("build timed out")
            if done.returncode != 0:
                raise BenchError("build failed; see " + log.name)


def child(args, timeout, env=None):
    """Run the binary once; return the JSON object it printed last."""
    try:
        done = subprocess.run([BINARY] + [str(a) for a in args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("copra_perfbench %s timed out" % args[0])
    if done.returncode != 0:
        raise BenchError("copra_perfbench %s failed: %s"
                         % (args[0], done.stderr.strip()[-2000:]))
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("copra_perfbench %s printed no result" % args[0])


def probe():
    """Host calibration: one loop alone, then nproc copies at once."""
    single = child(["probe", "--seconds", 0.25], timeout=30)
    procs = [subprocess.Popen([BINARY, "probe", "--seconds", "0.25"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
             for _ in range(nproc())]
    rates = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=30)
            rates.append(json.loads(out.strip().splitlines()[-1])["loop_rate"])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    aggregate = sum(rates)
    return {"nproc": nproc(), "simd": single["simd"],
            "single_thread_loops_per_s": single["loop_rate"],
            "aggregate_loops_per_s": aggregate,
            "parallel_ceiling": aggregate / single["loop_rate"]}


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def measure(workload, seed, seconds, traced, plant=None, work=None,
            setup_reps=SETUP_REPS, setup_seconds=SETUP_SECONDS):
    """Set up and run one workload; return (setup, steady, spans)."""
    work = work or os.path.join(WORK, "%s-s%d" % (workload, seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        trace_args = lambda name: (["--trace", "--spans",
                                    os.path.join(work, name)]
                                   if traced else [])
        setup = child(["setup", "--workload", workload, "--seed", seed,
                       "--reps", setup_reps, "--seconds", setup_seconds,
                       "--cache-root",
                       os.path.join(work, "cache")]
                      + trace_args("setup.jsonl"), timeout=90)
        env = dict(os.environ, COPRA_CACHE_DIR=setup["cache_dir"])
        steady = child(["steady", "--workload", workload, "--seed", seed,
                        "--seconds", seconds, "--reference", REFERENCE]
                       + (["--plant", plant] if plant else [])
                       + trace_args("steady.jsonl"),
                       timeout=seconds + 75, env=env)
        spans = None
        if traced:
            spans = (read_spans(os.path.join(work, "setup.jsonl")),
                     read_spans(os.path.join(work, "steady.jsonl")))
        return setup, steady, spans
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- metrics -------------------------------------------------------------

def end_to_end(setup, steady):
    untraced = [r for r in steady["reps"] if not r["traced"]]
    wall = median([r["wall_s"] for r in untraced])
    return {
        "setup_s": (median(setup["setup_s"]), "s"),
        "wall_s": (wall, "s"),
        "cond_branches_per_s": (steady["conditionals"] / wall, "1/s"),
        "cpu_s": (median([r["cpu_s"] for r in untraced]), "s"),
        "peak_rss_mb": (steady["peak_rss_mb"], "MiB"),
    }


def self_times(spans):
    """Each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    result = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for child_span in sorted(children[i], key=lambda c: c["start"]):
            lo = max(child_span["start"], reach)
            hi = min(child_span["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span["end"] - span["start"] - covered)
    return result


def per_rep(spans, root_name):
    """Group spans by the root span they descend from."""
    roots = {}
    for i, span in enumerate(spans):
        j = i
        while spans[j]["parent"] >= 0:
            j = spans[j]["parent"]
        if spans[j]["name"] == root_name:
            roots.setdefault(j, []).append(i)
    return [(spans[root], [spans[i] for i in members])
            for root, members in sorted(roots.items())]


def layer_of(name):
    if name.startswith("trace.") or name.startswith("workload."):
        return "trace"
    for prefix in ("predictor", "sim", "core"):
        if name.startswith(prefix + "."):
            return prefix
    return "other"


def per_layer(setup, steady, spans):
    setup_spans, steady_spans = spans
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def rep_sum(reps, names):
        return median([sum(s["end"] - s["start"] for s in members
                           if s["name"] in names) for _, members in reps])

    setups = per_rep(setup_spans, "setup")
    generate = rep_sum(setups, {"workload.generate"})
    put("workload.generate_s", generate, "s")
    put("workload.records_per_s",
        setup["records"] / generate if generate else 0.0, "1/s")
    put("trace.store_s", rep_sum(setups, {"trace.store"}), "s")
    put("trace.store_bytes", setup["store_bytes"], "bytes")

    for span, own in zip(steady_spans, self_times(steady_spans)):
        span["self"] = own
    passes = per_rep(steady_spans, "pass")
    traced = [r for r in steady["reps"] if r["traced"]]
    put("trace.load_s", rep_sum(passes, {"trace.load"}), "s")
    put("trace.load_bytes", steady["load_bytes"], "bytes")
    put("trace.soa_s", rep_sum(passes, {"trace.soa"}), "s")
    put("trace.load_rss_mb", median([r["load_rss_mb"] for r in traced]),
        "MiB")
    counters = steady["counters"]
    hit, miss = counters["trace.cache.hit"], counters["trace.cache.miss"]
    mmap_hit = counters["trace.cache.mmap_hit"]
    absent = sorted(k for k, v in counters.items() if v is None)
    put("trace.cache_hit_ratio",
        hit / (hit + miss) if hit is not None and miss is not None
        and hit + miss else 0.0, "1")
    put("trace.mmap_hit_ratio",
        mmap_hit / hit if mmap_hit is not None and hit else 0.0, "1")

    for spec in SPECS:
        info = steady["specs"].get(spec)
        make = rep_sum(passes, {"predictor.make." + spec})
        pass_s = rep_sum(passes, {"sim.pass." + spec})
        put("predictor.make_s." + spec, make, "s")
        put("predictor.state_bits." + spec,
            info["state_bits"] if info else 0, "bits")
        put("sim.pass_s." + spec, pass_s, "s")
        put("sim.branches_per_s." + spec,
            info["branches"] / pass_s if info and pass_s else 0.0, "1/s")
        put("sim.mispredicts." + spec, info["mispredicts"] if info else 0,
            "count")

    put("core.oracle_s", rep_sum(passes, {"core.oracle"}), "s")
    put("core.classifier_s", rep_sum(passes, {"core.classifier"}), "s")
    put("core.best_of_s",
        rep_sum(passes, {"core.best_of", "core.ideal_static"}), "s")
    put("core.h2p_s", rep_sum(passes, {"core.h2p"}), "s")

    threads = steady["threads"]
    utilization, waits, imbalance = [], [], []
    shares = defaultdict(list)
    for root, members in passes:
        tasks = [s for s in members if s["name"] == "member"]
        busy = sum(s["end"] - s["start"] for s in tasks)
        wall = root["end"] - root["start"]
        utilization.append(busy / (wall * threads))
        waits.append(median([s["start"] - root["start"] for s in tasks]))
        mean_task = busy / len(tasks)
        imbalance.append(max(s["end"] - s["start"] for s in tasks)
                         / mean_task)
        by_layer = defaultdict(float)
        for span in members:
            if span is root:
                continue
            name, own = span["name"], span["self"]
            by_layer[layer_of(name)] += own
            if name.startswith("sim.pass.") and name[9:] in MODERN:
                by_layer["sim_modern"] += own
            if name in ("core.oracle", "core.classifier"):
                by_layer["core_oracle_classifier"] += own
        for layer in ("trace", "predictor", "sim", "sim_modern", "core",
                      "core_oracle_classifier", "other"):
            shares[layer].append(by_layer[layer] / busy)
    put("util.pool_threads", threads, "count")
    put("util.pool_utilization", median(utilization), "1")
    put("util.task_wait_s", median(waits), "s")
    put("util.task_imbalance", median(imbalance), "1")

    untraced_wall = median([r["wall_s"] for r in steady["reps"]
                            if not r["traced"]])
    traced_wall = median([r["wall_s"] for r in traced])
    put("obs.trace_overhead_pct",
        100.0 * (traced_wall / untraced_wall - 1.0), "%")
    for layer, values in shares.items():
        put("share." + layer, median(values), "1")
    return metrics, absent


def paper_gap(workload, steady):
    """How far the simulated results sit from the paper (context only)."""
    members = steady["members"]
    avg = lambda xs: sum(xs) / len(xs) if xs else float("nan")
    if workload == "split-warm":
        paper = [m for m in members if m["name"] in PAPER_EIGHT]
        got = [round(100 * avg([m["split"][k] for m in paper]), 2)
               for k in range(3)]
        return {"fig7_split_pct_gshare_pas_static": got,
                "paper_fig7": [29, 16, 55],
                "gap_points": [round(g - p, 2)
                               for g, p in zip(got, [29, 16, 55])]}
    if workload == "oracle-analysis":
        sel = [round(avg([m["sel"][k] for m in members]), 3)
               for k in range(3)]
        ifg = round(avg([m["accuracy"]["if_gshare"] for m in members]), 3)
        split = [round(100 * avg([m["split"][k] for m in members]), 2)
                 for k in range(3)]
        return {"fig4_sel123_pct": sel, "fig4_if_gshare_pct": ifg,
                "sel3_minus_if_gshare": round(sel[2] - ifg, 3),
                "paper_fig4": "sel-1 respectable; sel-3 close to IF gshare",
                "fig8_split_pct_global_pa_static": split,
                "paper_fig8": [38, 22, 40]}
    return {"avg_accuracy_pct": {
        spec: round(avg([m["accuracy"][spec] for m in members]), 3)
        for spec in members[0]["accuracy"]},
        "paper": "no counterpart (modern-roster extension)"}


def run_once(args):
    build()
    host = probe()
    traced = args.trace == 1
    setup, steady, spans = measure(args.workload, args.seed, args.seconds,
                                   traced)
    attempted = setup["attempted"] + steady["attempted"]
    failed = setup["failed"] + steady["failed"]
    absent = []
    if traced:
        metrics, absent = per_layer(setup, steady, spans)
    else:
        metrics = end_to_end(setup, steady)

    reps = steady["reps"]
    print("copra perfbench: workload=%s seed=%d trace=%d threads=%d "
          "steady reps=%d (%d traced) setup reps=%d"
          % (args.workload, args.seed, args.trace, steady["threads"],
             len(reps), sum(r["traced"] for r in reps),
             len(setup["setup_s"])))
    for name, (value, unit) in metrics.items():
        print("  %-32s %16.6g %s" % (name, value, unit))
    print("  %-32s %16.6g 1   (%d of %d checked operations failed)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    for message in setup["failures"] + steady["failures"]:
        print("  FAILED: " + message)
    walls = [r["wall_s"] for r in reps if not r["traced"]]
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "fail_ratio": failed / attempted,
               "untraced_reps": len(walls),
               "wall_s_quartiles": quartiles(walls),
               "host": host, "paper_gap": paper_gap(args.workload, steady),
               "absent_counters": absent}
    print("context " + json.dumps(context, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, "trace": args.trace,
                                  "result": result, "context": context})
                      + "\n")
    print(json.dumps(result))


# --- self-test and compare -------------------------------------------------

def self_test(args):
    """Planted wrong answers must fail checks and flip the verdict."""
    build()
    cases = [("clean, canonical seed", 0, None, False),
             ("clean, replayed seed", 1, None, False),
             ("perturbed ledger tally", 1, "tally", True),
             ("wrong reference digest", 0, "digest", True)]
    ok = True
    for label, seed, plant, expect_failure in cases:
        _, steady, _ = measure(args.workload, seed, 0, False, plant,
                               os.path.join(WORK, "self-test"), 1, 0)
        caught = steady["failed"] > 0
        good = caught == expect_failure
        ok = ok and good
        print("%-26s seed=%d failed=%d/%d correct=%s -> %s"
              % (label, seed, steady["failed"], steady["attempted"],
                 str(not caught).lower(), "as expected" if good
                 else "UNEXPECTED"))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(args):
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    def load(path):
        sets = defaultdict(lambda: defaultdict(list))
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    for name, m in rec["result"]["metrics"].items():
                        sets[rec["workload"]][name].append(m["value"])
        return sets

    a, b = load(args.compare[0]), load(args.compare[1])
    print("%-16s %-30s %24s %24s %6s %7s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "B wins", "bound", "verdict"))
    for workload in sorted(set(a) & set(b)):
        for name in sorted(set(a[workload]) & set(b[workload])):
            va, vb = a[workload][name], b[workload][name]
            qa, qb = quartiles(va), quartiles(vb)
            meta = declared.get(name, {})
            lower = meta.get("better", "lower") == "lower"
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            pairs = list(zip(va, vb))
            wins = sum(better(y, x) for x, y in pairs)
            bound = meta.get("bound")
            spread = lambda q: (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
            if bound is None:
                verdict = "ungated"
            elif all(better(y, x) for x in va for y in vb):
                verdict = "B better in every run"
            elif all(better(x, y) for x in va for y in vb) and \
                    abs(qb[1] - qa[1]) > bound * abs(qa[1]):
                verdict = "B WORSE in every run"
            elif spread(qa) > bound or spread(qb) > bound:
                verdict = "unresolved (spread %.3f/%.3f > bound)" % (
                    spread(qa), spread(qb))
            elif better(qa[1], qb[1]) and \
                    abs(qb[1] - qa[1]) > bound * abs(qa[1]):
                verdict = "B WORSE beyond bound"
            else:
                verdict = "within bound (spread %.3f/%.3f)" % (
                    spread(qa), spread(qb))
            fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
            print("%-16s %-30s %24s %24s %3d/%-2d %7s  %s" % (
                workload, name, fmt(qa), fmt(qb), wins, len(pairs),
                "-" if bound is None else "%.2f" % bound, verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="split-warm",
                        choices=["split-warm", "roster-modern",
                                 "oracle-analysis", "roster-par"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append this run's record (JSON line)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two files of --out records")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(args)
        if args.self_test:
            return self_test(args)
        run_once(args)
        return 0
    except BenchError as err:
        print("perfbench: " + str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
