/**
 * @file
 * Experiment assembly: everything needed to regenerate the paper's
 * tables and figures for one benchmark, with shared intermediate results
 * (trace, ledgers, oracle, classifier) computed lazily and exactly once.
 * The bench binaries are thin wrappers over this layer.
 *
 * Concurrency contract (DESIGN.md §10): a BenchmarkExperiment is
 * task-confined — the lazy getters mutate the cached optionals without
 * locking, so one instance must never be shared across pool workers.
 * The bench fan-out honors this by constructing one experiment per
 * task; inside an experiment, precomputeLedgers() may itself shard
 * across the pool, which is safe because each inner task writes only
 * its own result slot before the single owning task installs them.
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/best_of.hpp"
#include "core/oracle.hpp"
#include "core/pa_class.hpp"
#include "sim/ledger.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stats.hpp"

namespace copra::core {

/** Shared parameters of the paper reproduction experiments. */
struct ExperimentConfig
{
    /** Dynamic conditional branches per benchmark trace. */
    uint64_t branches = 2'000'000;

    /** Workload execution seed (0 = each profile's canonical seed). */
    uint64_t seed = 0;

    /** History window depth n for correlation experiments. */
    unsigned historyDepth = 16;

    /** Oracle candidate pool size K. */
    unsigned candidatePool = 14;

    /** Conditional branches used for candidate mining (0 = all). */
    uint64_t mineConditionals = 1'000'000;

    /** gshare and IF-gshare history length. */
    unsigned gshareHistory = 16;

    /** PAs geometry. */
    unsigned pasHistory = 12;
    unsigned pasBhtBits = 12;
    unsigned pasSelectBits = 4;

    /** IF-PAs history length. */
    unsigned ifPasHistory = 12;
};

/**
 * Wall-clock seconds spent in each phase of one benchmark's experiments,
 * recorded by BenchmarkExperiment as work happens. The bench harnesses
 * sum these across benchmarks for the timing= line and
 * bench_results.json.
 */
struct PhaseTimes
{
    double traceSeconds = 0.0;     //!< workload generation or cache load
    double predictorSeconds = 0.0; //!< sim::run passes over the trace
    double oracleSeconds = 0.0;    //!< selective oracle + classifier
};

/** Fig. 4 row: selective history vs gshare and IF gshare. */
struct Fig4Row
{
    std::string name;
    double selective1 = 0.0;
    double selective2 = 0.0;
    double selective3 = 0.0;
    double ifGshare = 0.0;
    double gshare = 0.0;
};

/** Table 2 row: correlation gshare fails to exploit. */
struct Table2Row
{
    std::string name;
    double gshare = 0.0;
    double gshareWithCorr = 0.0;
    double ifGshare = 0.0;
    double ifGshareWithCorr = 0.0;
};

/** Fig. 6 row: per-address class distribution. */
struct Fig6Row
{
    std::string name;
    std::array<double, 4> fractions{}; //!< indexed by PaClass
    double staticBiasedFraction = 0.0;
};

/** Table 3 row: loop predictability PAs fails to exploit. */
struct Table3Row
{
    std::string name;
    double pas = 0.0;
    double pasWithLoop = 0.0;
    double ifPas = 0.0;
    double ifPasWithLoop = 0.0;
};

/**
 * All shared state for one benchmark's experiments. Construction only
 * generates the trace; each product is computed on first use.
 */
class BenchmarkExperiment
{
  public:
    /**
     * @param name One of workload::benchmarkNames().
     * @param config Experiment parameters.
     */
    BenchmarkExperiment(const std::string &name,
                        const ExperimentConfig &config);

    /** Construct over an externally supplied trace (tests, file input). */
    BenchmarkExperiment(trace::Trace trace, const ExperimentConfig &config);

    const std::string &name() const { return name_; }
    const ExperimentConfig &config() const { return config_; }
    const trace::Trace &trace() const { return trace_; }

    /** Population statistics of the trace. */
    const trace::TraceStats &stats();

    /** Seconds spent so far, by phase. */
    const PhaseTimes &phaseTimes() const { return times_; }

    /**
     * Compute the gshare, PAs and IF-gshare ledgers that are not yet
     * cached, sharding the simulation passes across the global thread
     * pool (sim::runAll). Purely an optimization: the lazy
     * getters return identical ledgers whether or not this ran first.
     */
    void precomputeLedgers();

    /** gshare run (per-branch ledger). */
    const sim::Ledger &gshareLedger();

    /** PAs run. */
    const sim::Ledger &pasLedger();

    /** Interference-free gshare run. */
    const sim::Ledger &ifGshareLedger();

    /** Ideal static predictor (majority direction per branch). */
    const sim::Ledger &idealStaticLedgerRef();

    /**
     * Ledger of an arbitrary factory-spec predictor (predictor/factory
     * grammar, e.g. "tage" or "perceptron:tbits=12"), computed on first
     * use and cached by spec string. The modern-roster and H2P analyses
     * (bench/fig10_modern_roster, core/h2p.hpp) run through this so
     * repeated queries against one benchmark share simulation passes.
     */
    const sim::Ledger &ledgerFor(const std::string &spec);

    /** Selective-history oracle (sizes 1..3). */
    const SelectiveOracle &oracle();

    /** Per-address classification (loop / repeating / non-repeating). */
    const PaClassifier &classifier();

    // --- Row producers, one per paper artifact ------------------------
    Fig4Row fig4Row();
    Table2Row table2Row();
    Fig6Row fig6Row();
    Table3Row table3Row();

    /** Fig. 7: best of {gshare, PAs, ideal static}. */
    BestOfSplit fig7Split();

    /** Fig. 8: best of {global correlation, per-address, ideal static}. */
    BestOfSplit fig8Split();

    /** Fig. 9: percentile curve of gshare - PAs accuracy difference. */
    WeightedPercentiles fig9Percentiles();

  private:
    std::string name_;
    ExperimentConfig config_;
    trace::Trace trace_;

    std::optional<trace::TraceStats> stats_;
    std::optional<sim::Ledger> gshare_;
    std::optional<sim::Ledger> pas_;
    std::optional<sim::Ledger> ifGshare_;
    std::optional<sim::Ledger> idealStatic_;
    std::map<std::string, sim::Ledger> specLedgers_; // keyed by spec
    std::unique_ptr<SelectiveOracle> oracle_;
    std::unique_ptr<PaClassifier> classifier_;
    PhaseTimes times_;
};

/**
 * Fig. 5 series: 3-branch selective history accuracy as a function of
 * history depth, for depths @p depths (the paper uses 8..32 step 4).
 * Each depth runs a fresh oracle over the same trace.
 */
std::vector<std::pair<unsigned, double>> fig5Series(
    const trace::Trace &trace, const ExperimentConfig &config,
    const std::vector<unsigned> &depths);

/**
 * Build the trace for a named benchmark under @p config. When the global
 * trace cache is enabled (trace::setTraceCacheEnabled), the trace is
 * served from / stored to the on-disk cache keyed by
 * (name, branches, seed, format version) instead of being regenerated.
 */
trace::Trace makeExperimentTrace(const std::string &name,
                                 const ExperimentConfig &config);

} // namespace copra::core

