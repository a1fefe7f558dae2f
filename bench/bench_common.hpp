/**
 * @file
 * Shared plumbing for the bench binaries: common CLI options, the
 * standard header each table or figure prints, the parallel suite
 * fan-out, and wall-clock timing instrumentation. The paper's tables
 * and figures are the sections of one driver (paper.cpp): copra_paper
 * prints them all, and each harness binary prints one. The ablations
 * are separate programs over the same plumbing.
 *
 * Parallelism: runSuite() runs a roster — the paper's 8 benchmarks by
 * default, or an explicit name list such as workload::
 * workloadSuiteNames(), which adds the frontier families — concurrently
 * on the global thread pool (size --threads / COPRA_THREADS, at most
 * kMaxPoolThreads), collecting rows in roster order so the printed
 * tables are byte-identical for every thread count. Traces are served
 * from the on-disk cache (.copra-cache/ or $COPRA_CACHE_DIR) unless
 * --no-trace-cache is given.
 *
 * Timing: each suite pass prints a "timing=" line (per-phase seconds
 * and branch throughput) to stderr. Speed claims and the performance
 * gate use perfbench (tools/perf_ab.sh), not this line.
 */

#pragma once

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiments.hpp"
#include "obs/instruments.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "trace/trace_cache.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"
#include "workload/profiles.hpp"

namespace copra::bench {

/** CLI options shared by all table/figure harnesses. */
struct BenchOptions
{
    core::ExperimentConfig config;
    bool csv = false;
    uint64_t threads = 0;     //!< worker threads (0 = auto)
    bool noTraceCache = false;
    //! run-manifest path; "" disables (docs/OBSERVABILITY.md)
    std::string metricsOut = util::envString("COPRA_METRICS_OUT", "");
    bool metricsSummary = false; //!< print the instrument table (stderr)
    std::string argvLine;        //!< reconstructed command line
    bool branchesGiven = false;  //!< --branches was on the command line
    bool mineGiven = false;      //!< --mine was on the command line

    /**
     * Parse argv; returns false if the program should exit (e.g.
     * --help). @p extra lets a harness register additional options.
     * A count that does not fit its field, or a --threads above
     * kMaxPoolThreads, is a fatal usage error. On success, sizes the
     * global thread pool and enables the trace cache (unless
     * --no-trace-cache).
     */
    bool
    parse(int argc, char **argv, const std::string &description,
          const std::function<void(OptionParser &)> &extra = {})
    {
        OptionParser options(description);
        options.addUint("branches", &config.branches,
                        "dynamic conditional branches per benchmark");
        options.addUint("seed", &config.seed,
                        "workload seed (0 = canonical)");
        options.addUint("mine", &config.mineConditionals,
                        "branches used for candidate mining (0 = all)");
        options.addFlag("csv", &csv, "emit CSV instead of aligned text");
        options.addUint("threads", &threads,
                        "worker threads (0 = COPRA_THREADS or hardware)",
                        kMaxPoolThreads);
        options.addFlag("no-trace-cache", &noTraceCache,
                        "regenerate traces instead of using "
                        ".copra-cache/ ($COPRA_CACHE_DIR)");
        options.addString("metrics-out", &metricsOut,
                          "write a run-manifest JSON here "
                          "($COPRA_METRICS_OUT; empty = off)");
        options.addFlag("metrics-summary", &metricsSummary,
                        "print non-zero telemetry instruments to stderr");
        uint64_t depth = config.historyDepth;
        uint64_t pool = config.candidatePool;
        options.addUint("depth", &depth, "history window depth n",
                        UINT_MAX);
        options.addUint("pool", &pool, "oracle candidate pool size K",
                        UINT_MAX);
        if (extra)
            extra(options);
        if (!options.parse(argc, argv))
            return false;
        config.historyDepth = static_cast<unsigned>(depth);
        config.candidatePool = static_cast<unsigned>(pool);
        branchesGiven = options.given("branches");
        mineGiven = options.given("mine");

        std::ostringstream line;
        for (int i = 1; i < argc; ++i)
            line << (i > 1 ? " " : "") << argv[i];
        argvLine = line.str();

        setGlobalPoolThreads(static_cast<unsigned>(threads));
        trace::setTraceCacheEnabled(!noTraceCache);
        // Telemetry before any simulation work, so every instrument
        // sees the whole run; recording stays off unless requested.
        obs::setEnabled(!metricsOut.empty() || metricsSummary);
        return true;
    }
};

/** Print the standard harness banner. */
inline void
banner(const char *artifact, const BenchOptions &opts)
{
    std::printf("== %s ==\n", artifact);
    std::printf("synthetic SPECint95-like suite, %llu branches/benchmark, "
                "seed %llu (see DESIGN.md for the substitution rationale)\n\n",
                static_cast<unsigned long long>(opts.config.branches),
                static_cast<unsigned long long>(opts.config.seed));
}

/** Aggregate timing of one harness run, summed over the suite. */
struct SuiteTiming
{
    double wallSeconds = 0.0;       //!< end-to-end fan-out wall clock
    double traceSeconds = 0.0;      //!< trace gen/load, summed per task
    double predictorSeconds = 0.0;  //!< predictor runs, summed per task
    double oracleSeconds = 0.0;     //!< selective oracles, summed
    double classifierSeconds = 0.0; //!< PA classifiers, summed
    uint64_t dynamicBranches = 0;   //!< conditional branches simulated
};

/**
 * Mutex-guarded SuiteTiming accumulator for the parallel fan-out. The
 * guarded_by annotation makes the locking discipline a compile-time
 * property under -Wthread-safety (DESIGN.md §10): a task adding its
 * phase times without the lock no longer compiles on Clang.
 */
struct SuiteTimingAccumulator
{
    util::Mutex mutex;
    SuiteTiming totals COPRA_GUARDED_BY(mutex);

    /** Fold one completed experiment's phase times into the totals. */
    void
    add(const core::PhaseTimes &phases, uint64_t branches)
    {
        util::MutexLock lock(mutex);
        totals.traceSeconds += phases.traceSeconds;
        totals.predictorSeconds += phases.predictorSeconds;
        totals.oracleSeconds += phases.oracleSeconds;
        totals.classifierSeconds += phases.classifierSeconds;
        totals.dynamicBranches += branches;
    }

    /** Snapshot the totals (taken after the fan-out has joined). */
    SuiteTiming
    snapshot()
    {
        util::MutexLock lock(mutex);
        return totals;
    }
};

/**
 * Run @p producer over @p names concurrently and return the produced
 * rows in that order (deterministic regardless of thread count or
 * scheduling: each task owns its BenchmarkExperiment and writes only
 * its own slot). Names must be suite workloads
 * (workload::makeBenchmarkTrace dispatches paper and frontier alike).
 *
 * @param timing Optional sink for per-phase and wall-clock seconds.
 */
template <typename Producer>
auto
runSuite(const BenchOptions &opts, SuiteTiming *timing,
         const std::vector<std::string> &names, Producer &&producer)
    -> std::vector<std::decay_t<
        std::invoke_result_t<Producer &, core::BenchmarkExperiment &>>>
{
    using Row = std::decay_t<
        std::invoke_result_t<Producer &, core::BenchmarkExperiment &>>;
    std::vector<Row> rows(names.size());

    SuiteTimingAccumulator accumulator;
    auto start = std::chrono::steady_clock::now();
    parallelFor(globalPool(), names.size(), [&](size_t i) {
        core::BenchmarkExperiment experiment(names[i], opts.config);
        rows[i] = producer(experiment);
        if (timing)
            accumulator.add(experiment.phaseTimes(),
                            experiment.trace().conditionalCount());
    });
    if (timing) {
        *timing = accumulator.snapshot();
        timing->wallSeconds = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count();
    }
    return rows;
}

/** runSuite over the paper's eight benchmarks (the tables' roster). */
template <typename Producer>
auto
runSuite(const BenchOptions &opts, SuiteTiming *timing,
         Producer &&producer)
{
    return runSuite(opts, timing, workload::benchmarkNames(),
                    std::forward<Producer>(producer));
}

/**
 * Print the timing= line of one suite pass. The line goes to stderr so
 * stdout (the tables) stays byte-identical across thread counts and
 * machines.
 */
inline void
printTiming(const SuiteTiming &timing)
{
    double branches_per_sec = timing.wallSeconds > 0
        ? static_cast<double>(timing.dynamicBranches) / timing.wallSeconds
        : 0.0;
    std::fprintf(stderr,
                 "timing= total=%.3fs trace=%.3fs predictors=%.3fs "
                 "oracle=%.3fs classifier=%.3fs threads=%u branches=%llu "
                 "branches/sec=%.0f\n",
                 timing.wallSeconds, timing.traceSeconds,
                 timing.predictorSeconds, timing.oracleSeconds,
                 timing.classifierSeconds, globalPool().size(),
                 static_cast<unsigned long long>(timing.dynamicBranches),
                 branches_per_sec);
    if (obs::enabled())
        obs::observe(obs::ids().benchSuiteWallSeconds, timing.wallSeconds);
}

/**
 * When telemetry is on, write the run manifest of @p artifact and the
 * instrument summary. Call once, after the last suite pass.
 */
inline void
reportRun(const char *artifact, const BenchOptions &opts)
{
    if (!obs::enabled())
        return;
    obs::gaugeMax(obs::ids().poolWorkerCount, globalPool().size());
    obs::RunInfo info;
    info.tool = artifact;
    info.args = opts.argvLine;
    info.seed = opts.config.seed;
    info.threads = globalPool().size();
    if (!opts.metricsOut.empty())
        obs::writeManifest(opts.metricsOut, info);
    if (opts.metricsSummary)
        std::fputs(
            obs::renderSummary(obs::Registry::instance().snapshot())
                .c_str(),
            stderr);
}

/** printTiming() then reportRun(): the close of a one-pass harness. */
inline void
reportTiming(const char *artifact, const BenchOptions &opts,
             const SuiteTiming &timing)
{
    printTiming(timing);
    reportRun(artifact, opts);
}

} // namespace copra::bench

