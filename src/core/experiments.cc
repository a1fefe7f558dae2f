#include "core/experiments.hpp"

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "predictor/factory.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "trace/trace_cache.hpp"
#include "workload/profiles.hpp"

namespace copra::core {

namespace {

// Phase timing now goes through obs::PhaseTimer, which both feeds the
// per-phase wall/CPU histograms and accumulates into the PhaseTimes
// field the bench timing= line reports. Durations go to stderr and run
// manifests, never into simulation results or stdout (DESIGN.md §7).

/** Wall+CPU phase guard for the trace-build phase. */
obs::PhaseTimer
traceGuard(PhaseTimes &times)
{
    return {obs::ids().simPhaseTraceSeconds,
            obs::ids().simPhaseTraceCpuSeconds, &times.traceSeconds};
}

/** Wall+CPU phase guard for the predictor-simulation phase. */
obs::PhaseTimer
predictorGuard(PhaseTimes &times)
{
    return {obs::ids().simPhasePredictorSeconds,
            obs::ids().simPhasePredictorCpuSeconds,
            &times.predictorSeconds};
}

/** Wall+CPU phase guard for the oracle/classifier phase. */
obs::PhaseTimer
oracleGuard(PhaseTimes &times)
{
    return {obs::ids().simPhaseOracleSeconds,
            obs::ids().simPhaseOracleCpuSeconds, &times.oracleSeconds};
}

} // namespace

trace::Trace
makeExperimentTrace(const std::string &name, const ExperimentConfig &config)
{
    auto generate = [&]() {
        return workload::makeBenchmarkTrace(name, config.branches,
                                            config.seed);
    };
    if (!trace::traceCacheEnabled())
        return generate();
    trace::TraceCacheKey key{name, config.branches, config.seed};
    return trace::globalTraceCache().loadOrGenerate(key, generate);
}

BenchmarkExperiment::BenchmarkExperiment(const std::string &name,
                                         const ExperimentConfig &config)
    : name_(name), config_(config)
{
    obs::PhaseTimer guard = traceGuard(times_);
    trace_ = makeExperimentTrace(name, config);
}

BenchmarkExperiment::BenchmarkExperiment(trace::Trace trace,
                                         const ExperimentConfig &config)
    : name_(trace.name()), config_(config), trace_(std::move(trace))
{
}

const trace::TraceStats &
BenchmarkExperiment::stats()
{
    if (!stats_)
        stats_.emplace(trace_);
    return *stats_;
}

const sim::Ledger &
BenchmarkExperiment::gshareLedger()
{
    if (!gshare_) {
        obs::PhaseTimer guard = predictorGuard(times_);
        predictor::TwoLevel pred(
            predictor::TwoLevelConfig::gshare(config_.gshareHistory));
        gshare_.emplace();
        sim::run(trace_, pred, &*gshare_);
    }
    return *gshare_;
}

const sim::Ledger &
BenchmarkExperiment::pasLedger()
{
    if (!pas_) {
        obs::PhaseTimer guard = predictorGuard(times_);
        predictor::TwoLevel pred(predictor::TwoLevelConfig::pas(
            config_.pasHistory, config_.pasBhtBits, config_.pasSelectBits));
        pas_.emplace();
        sim::run(trace_, pred, &*pas_);
    }
    return *pas_;
}

const sim::Ledger &
BenchmarkExperiment::ifGshareLedger()
{
    if (!ifGshare_) {
        obs::PhaseTimer guard = predictorGuard(times_);
        predictor::IfGshare pred(config_.gshareHistory);
        ifGshare_.emplace();
        sim::run(trace_, pred, &*ifGshare_);
    }
    return *ifGshare_;
}

void
BenchmarkExperiment::precomputeLedgers()
{
    std::vector<predictor::PredictorPtr> owned;
    std::vector<predictor::Predictor *> preds;
    std::vector<std::optional<sim::Ledger> *> sinks;
    if (!gshare_) {
        owned.push_back(std::make_unique<predictor::TwoLevel>(
            predictor::TwoLevelConfig::gshare(config_.gshareHistory)));
        sinks.push_back(&gshare_);
    }
    if (!pas_) {
        owned.push_back(std::make_unique<predictor::TwoLevel>(
            predictor::TwoLevelConfig::pas(config_.pasHistory,
                                           config_.pasBhtBits,
                                           config_.pasSelectBits)));
        sinks.push_back(&pas_);
    }
    if (!ifGshare_) {
        owned.push_back(std::make_unique<predictor::IfGshare>(
            config_.gshareHistory));
        sinks.push_back(&ifGshare_);
    }
    if (owned.empty())
        return;
    for (auto &pred : owned)
        preds.push_back(pred.get());

    obs::PhaseTimer guard = predictorGuard(times_);
    std::vector<sim::Ledger> ledgers;
    sim::runAll(trace_, preds, &ledgers);
    for (size_t i = 0; i < sinks.size(); ++i)
        sinks[i]->emplace(std::move(ledgers[i]));
}

const sim::Ledger &
BenchmarkExperiment::idealStaticLedgerRef()
{
    if (!idealStatic_)
        idealStatic_ = idealStaticLedger(gshareLedger());
    return *idealStatic_;
}

const sim::Ledger &
BenchmarkExperiment::ledgerFor(const std::string &spec)
{
    auto it = specLedgers_.find(spec);
    if (it == specLedgers_.end()) {
        obs::PhaseTimer guard = predictorGuard(times_);
        predictor::PredictorPtr pred = predictor::makePredictor(spec);
        sim::Ledger ledger;
        sim::run(trace_, *pred, &ledger);
        it = specLedgers_.emplace(spec, std::move(ledger)).first;
    }
    return it->second;
}

const SelectiveOracle &
BenchmarkExperiment::oracle()
{
    if (!oracle_) {
        obs::PhaseTimer guard = oracleGuard(times_);
        OracleConfig oc;
        oc.historyDepth = config_.historyDepth;
        oc.candidatePool = config_.candidatePool;
        oc.maxSelect = 3;
        oc.mineConditionals = config_.mineConditionals;
        oracle_ = std::make_unique<SelectiveOracle>(trace_, oc);
    }
    return *oracle_;
}

const PaClassifier &
BenchmarkExperiment::classifier()
{
    if (!classifier_) {
        obs::PhaseTimer guard = oracleGuard(times_);
        classifier_ =
            std::make_unique<PaClassifier>(trace_, config_.ifPasHistory);
    }
    return *classifier_;
}

Fig4Row
BenchmarkExperiment::fig4Row()
{
    Fig4Row row;
    row.name = name_;
    const SelectiveOracle &orc = oracle();
    row.selective1 = orc.accuracyPercent(1);
    row.selective2 = orc.accuracyPercent(2);
    row.selective3 = orc.accuracyPercent(3);
    row.ifGshare = ifGshareLedger().accuracyPercent();
    row.gshare = gshareLedger().accuracyPercent();
    return row;
}

Table2Row
BenchmarkExperiment::table2Row()
{
    Table2Row row;
    row.name = name_;
    sim::Ledger selective1 = oracle().toLedger(1);
    row.gshare = gshareLedger().accuracyPercent();
    row.gshareWithCorr =
        sim::bestOfAccuracyPercent(gshareLedger(), selective1);
    row.ifGshare = ifGshareLedger().accuracyPercent();
    row.ifGshareWithCorr =
        sim::bestOfAccuracyPercent(ifGshareLedger(), selective1);
    return row;
}

Fig6Row
BenchmarkExperiment::fig6Row()
{
    Fig6Row row;
    row.name = name_;
    row.fractions = classifier().classFractions();
    row.staticBiasedFraction = classifier().staticBucketBiasFraction();
    return row;
}

Table3Row
BenchmarkExperiment::table3Row()
{
    Table3Row row;
    row.name = name_;
    const PaClassifier &cls = classifier();
    sim::Ledger if_pas = cls.ifPasLedger();
    row.pas = pasLedger().accuracyPercent();
    row.pasWithLoop = cls.loopEnhancedAccuracyPercent(pasLedger());
    row.ifPas = if_pas.accuracyPercent();
    row.ifPasWithLoop = cls.loopEnhancedAccuracyPercent(if_pas);
    return row;
}

BestOfSplit
BenchmarkExperiment::fig7Split()
{
    return bestOfSplit(gshareLedger(), pasLedger(), idealStaticLedgerRef());
}

BestOfSplit
BenchmarkExperiment::fig8Split()
{
    sim::Ledger global = maxLedger(ifGshareLedger(), oracle().toLedger(3));
    sim::Ledger per_address = classifier().bestPaLedger();
    return bestOfSplit(global, per_address, idealStaticLedgerRef());
}

WeightedPercentiles
BenchmarkExperiment::fig9Percentiles()
{
    return accuracyDifference(gshareLedger(), pasLedger());
}

std::vector<std::pair<unsigned, double>>
fig5Series(const trace::Trace &trace, const ExperimentConfig &config,
           const std::vector<unsigned> &depths)
{
    std::vector<std::pair<unsigned, double>> series;
    series.reserve(depths.size());
    for (unsigned depth : depths) {
        OracleConfig oc;
        oc.historyDepth = depth;
        oc.candidatePool = config.candidatePool;
        oc.maxSelect = 3;
        oc.mineConditionals = config.mineConditionals;
        SelectiveOracle oracle(trace, oc);
        series.emplace_back(depth, oracle.accuracyPercent(3));
    }
    return series;
}

} // namespace copra::core
