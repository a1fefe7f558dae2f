/**
 * @file
 * The differential runner: replays a trace through an optimized
 * predictor along every execution path the simulator offers — the
 * classic scalar predict()/update() sequence, the SoA batch path
 * (predictUpdateSoa, what sim::run actually feeds), sim::run(), and
 * sim::runAll() on a thread pool — and diffs each against a
 * clarity-first reference model (check/ref_models.hpp) on a per-branch
 * basis.
 *
 * A mismatch is localized to the first diverging conditional branch,
 * and the offending trace is shrunk by a delta-debugging minimizer to a
 * short reproducer before it is reported. runCheckSuite() drives the
 * whole harness over a seed range of fuzzed traces (check/fuzz.hpp) and
 * is the standing correctness gate behind the copra_check binary and
 * the check_differential_test ctest entry.
 *
 * Deliberately-injected bugs (InjectedBug) provide the suite's
 * self-test: a harness that cannot catch a planted off-by-one is worse
 * than no harness, so the injected bugs run under ctest too.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "predictor/predictor.hpp"
#include "trace/trace.hpp"

namespace copra::check {

/** Factory producing a fresh, cold predictor instance per replay. */
using PredictorFactory = std::function<predictor::PredictorPtr()>;

/** One predictor-under-test and its reference model. */
struct CheckPair
{
    std::string name;          //!< display label, e.g. "pas(h=7,bht=5)"
    PredictorFactory optimized;
    PredictorFactory reference;
};

/**
 * The default pair roster: the two-level family at deliberately small
 * geometries (so fuzzed aliasing actually lands), bimodal, the loop and
 * pattern class predictors, and a hybrid. Small tables are the
 * adversarial choice — a big table hides indexing bugs by never
 * colliding.
 */
std::vector<CheckPair> defaultCheckPairs();

/** One observed divergence between optimized and reference. */
struct Mismatch
{
    std::string pair;   //!< CheckPair name
    std::string path;   //!< "scalar", "soa", "run" or "parallel"
    size_t index = 0;   //!< conditional-branch index (or ~0 = aggregate)
    uint64_t pc = 0;    //!< pc of the diverging branch
    bool expected = false; //!< reference prediction
    bool got = false;      //!< optimized prediction
    std::string detail;    //!< extra context for aggregate mismatches

    /** Marker index for whole-run (count-level) mismatches. */
    static constexpr size_t kAggregate = ~size_t(0);
};

/** All divergences one trace produced for one pair. */
struct DiffResult
{
    std::vector<Mismatch> mismatches;
    bool ok() const { return mismatches.empty(); }
};

/**
 * Per-conditional prediction stream of @p pred over @p trace using the
 * scalar predict()/update() path (observe() for non-conditionals).
 */
std::vector<uint8_t> scalarPredictions(const trace::Trace &trace,
                                       predictor::Predictor &pred);

/**
 * Per-conditional prediction stream using predictUpdateSoa() over the
 * trace's cached SoA segments — the batch path sim::run() drives.
 * Covers the fused predictUpdateSoa specializations.
 */
std::vector<uint8_t> soaPredictions(const trace::Trace &trace,
                                    predictor::Predictor &pred);

/**
 * Replay @p trace through every path of @p pair and diff against the
 * reference. @p check_parallel additionally runs sim::runAll over
 * several fresh instances on the global pool (slower; the suite
 * enables it).
 */
DiffResult diffPair(const trace::Trace &trace, const CheckPair &pair,
                    bool check_parallel = true);

/**
 * Delta-debugging trace shrinker: repeatedly deletes record chunks
 * (halving granularity down to single records) while @p still_fails
 * keeps returning true. Deterministic, greedy, and bounded by
 * @p max_rounds full sweeps.
 */
trace::Trace minimizeTrace(const trace::Trace &trace,
                           const std::function<bool(const trace::Trace &)>
                               &still_fails,
                           unsigned max_rounds = 24);

/** Configuration of a differential fuzzing campaign. */
struct SuiteOptions
{
    uint64_t seedBase = 1;       //!< first fuzz seed (inclusive)
    uint64_t traces = 100;       //!< fuzzed traces to replay
    uint64_t conditionals = 2000; //!< conditional branches per trace
    bool minimize = true;        //!< shrink mismatching traces
    bool checkParallel = true;   //!< include the sharded runAll path
};

/** One failing (pair, trace) combination, with its shrunk reproducer. */
struct SuiteFailure
{
    std::string pair;
    uint64_t seed = 0;
    Mismatch first;          //!< first mismatch on the original trace
    trace::Trace reproducer; //!< minimized (or original if !minimize)
};

/** Aggregate outcome of a campaign. */
struct SuiteReport
{
    uint64_t tracesRun = 0;
    uint64_t comparisons = 0; //!< (pair, trace) replays performed
    std::vector<SuiteFailure> failures;
    bool ok() const { return failures.empty(); }
};

/** Run @p pairs over the seed range of @p options. */
SuiteReport runCheckSuite(const SuiteOptions &options,
                          const std::vector<CheckPair> &pairs
                          = defaultCheckPairs());

/** Human-readable campaign summary (one line per failure). */
std::string formatReport(const SuiteReport &report);

/**
 * Deliberate predictor bugs for harness self-tests. Each returns an
 * otherwise-faithful implementation with one planted defect that the
 * differential suite must catch and shrink.
 */
enum class InjectedBug : uint8_t
{
    PasHistoryOffByOne = 0, //!< PAs update trains the neighboring BHT row
    GshareBatchStaleHistory, //!< SoA batch path predicts before applying
                             //!< the previous branch's update
    LoopTripOffByOne,        //!< learned trip count is run + 1
    GshareSoaPrematureTrain, //!< SoA batch path trains the counter and
                             //!< history before predicting; every other
                             //!< path is untouched
    TageAllocWrongDirection, //!< freshly allocated TAGE entries start
                             //!< weakly *against* the observed outcome;
                             //!< only the allocation path is wrong
    PerceptronWeightWrap,    //!< perceptron weights wrap at saturation
                             //!< instead of clamping
    TournamentBtbIgnoreMiss, //!< tournament BTB miss model disabled:
                             //!< taken predictions survive BTB misses
    TageShadowState,         //!< TAGE allocation consults a per-tag
                             //!< ledger kept outside the registered
                             //!< state fields: reset() clears it, but
                             //!< snapshots miss it — the hidden-state
                             //!< defect the round-trip gate
                             //!< (check/state_gates.hpp) exists for
    HotPathAlloc,            //!< the SoA batch path reallocates scratch
                             //!< per batch while predicting perfectly:
                             //!< invisible to every differential path
                             //!< and outside copra_lint's jurisdiction
                             //!< (it lives under src/check/), so only
                             //!< the runtime allocation gate
                             //!< (check/hot_gates.hpp) can catch it
};

/** Number of InjectedBug values. */
inline constexpr unsigned kInjectedBugCount = 9;

/** Stable name of an injected bug (CLI selector). */
const char *injectedBugName(InjectedBug bug);

/** Pair whose optimized side carries the planted defect. */
CheckPair injectedBugPair(InjectedBug bug);

} // namespace copra::check

