/**
 * @file
 * The trace-driven simulation driver: runs one or more predictors over a
 * trace, producing aggregate results and per-branch ledgers. All
 * conditional branches are predicted; other control transfers are passed
 * through (they exist for path/backward bookkeeping in the analyses).
 *
 * Concurrency contract (DESIGN.md §10): the driver holds no shared
 * mutable state of its own — runAll shards by predictor index,
 * each task owning its predictor, result slot, and ledger outright,
 * with the trace shared strictly read-only. There is deliberately
 * nothing here for a mutex to guard; the statically checked locking
 * discipline lives in the pool (util/thread_pool.hpp) and the bench
 * timing accumulator (bench_common.hpp) that feed this layer.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "predictor/predictor.hpp"
#include "sim/ledger.hpp"
#include "trace/trace.hpp"
#include "trace/trace_soa.hpp"
#include "util/hot.hpp"
#include "util/thread_pool.hpp"

namespace copra::sim {

/** Aggregate outcome of one predictor over one trace. */
struct RunResult
{
    std::string predictorName;
    uint64_t dynamicBranches = 0;
    uint64_t correct = 0;

    /**
     * True when the trace held at least one conditional branch, i.e.
     * accuracy is a meaningful number. A run over an all-non-conditional
     * trace predicted nothing; reporting it as 0% would read as "every
     * prediction wrong", so accuracyPercent() is NaN instead and
     * consumers print "n/a" (and oracle selection skips the result).
     */
    bool defined() const { return dynamicBranches != 0; }

    /** Prediction accuracy as a percentage; NaN when !defined(). */
    double
    accuracyPercent() const
    {
        if (dynamicBranches == 0)
            return std::numeric_limits<double>::quiet_NaN();
        return 100.0 * static_cast<double>(correct)
            / static_cast<double>(dynamicBranches);
    }

    /** Misprediction rate as a percentage; NaN when !defined(). */
    double mispredictPercent() const { return 100.0 - accuracyPercent(); }
};

/**
 * Run @p pred over @p trace.
 *
 * @param ledger Optional per-branch accounting sink.
 */
RunResult run(const trace::Trace &trace, predictor::Predictor &pred,
              Ledger *ledger = nullptr);

/** Totals produced by one runLoop pass. */
struct LoopTotals
{
    uint64_t correct = 0;
    uint64_t branches = 0;
};

/** Largest conditional segment of @p soa (runLoop scratch sizing). */
size_t maxSegment(const trace::SoABlocks &soa);

/**
 * The steady-state inner loop of run(): stream every conditional
 * segment of a prebuilt SoA image through the predictor's batch entry
 * point, delivering non-conditional records to observe() in trace
 * order, and — when @p tallies is non-null — add each branch's
 * execution, outcome and correctness into tallies[static index].
 *
 * This is a COPRA_HOT root: between the buffers being handed in and
 * the totals coming back it allocates nothing, takes no locks, and
 * cannot throw (DESIGN.md §15). All buffers are caller-owned: when
 * @p tallies is non-null it must hold soa.staticCount() entries and
 * @p correct_scratch maxSegment(soa) entries. `copra_check
 * --hot-gates` replays this exact function, ledger buffers included,
 * under the counting allocator to prove the claim at runtime.
 */
COPRA_HOT LoopTotals
runLoop(const trace::SoABlocks &soa, predictor::Predictor &pred,
        uint8_t *correct_scratch, BranchTally *tallies) noexcept;

/**
 * Run several predictors over the same trace, sharding predictors
 * across a thread pool: one full trace pass per predictor, each
 * independent, so every ledger covers exactly the same dynamic
 * branches and results and ledgers are bit-identical to serial run()
 * calls for every pool size — predictors own all their adaptive state
 * and there is no shared RNG. A pool of one runs the passes serially
 * on the calling thread.
 *
 * @param preds Predictors to drive (all receive every branch); each
 *              must be a distinct object.
 * @param ledgers Optional ledger sink; resized to preds.size().
 * @param pool Pool to shard across (nullptr = the global pool).
 */
std::vector<RunResult> runAll(
    const trace::Trace &trace,
    const std::vector<predictor::Predictor *> &preds,
    std::vector<Ledger> *ledgers = nullptr,
    ThreadPool *pool = nullptr);

} // namespace copra::sim
