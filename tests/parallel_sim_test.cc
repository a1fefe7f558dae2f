/**
 * @file
 * Determinism tests for the parallel experiment engine: the parallel
 * paths (runAll on pools of every size, the oracle's partitioned
 * greedy selection, the batched driver loop) must produce results
 * bit-identical to the serial paths for every thread count. Also the test the TSan ctest target
 * runs to catch data races in the sharding.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/oracle.hpp"
#include "predictor/bimodal.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "util/thread_pool.hpp"
#include "workload/profiles.hpp"

namespace copra::sim {
namespace {

trace::Trace
testTrace()
{
    return workload::makeBenchmarkTrace("gcc", 30000, 0);
}

std::vector<predictor::PredictorPtr>
predictorZoo()
{
    std::vector<predictor::PredictorPtr> zoo;
    zoo.push_back(std::make_unique<predictor::TwoLevel>(
        predictor::TwoLevelConfig::gshare(12)));
    zoo.push_back(std::make_unique<predictor::TwoLevel>(
        predictor::TwoLevelConfig::pas(10, 10, 4)));
    zoo.push_back(std::make_unique<predictor::TwoLevel>(
        predictor::TwoLevelConfig::gag(10)));
    zoo.push_back(std::make_unique<predictor::IfGshare>(12));
    zoo.push_back(std::make_unique<predictor::Bimodal>(12));
    return zoo;
}

std::vector<predictor::Predictor *>
raw(const std::vector<predictor::PredictorPtr> &zoo)
{
    std::vector<predictor::Predictor *> out;
    for (const auto &pred : zoo)
        out.push_back(pred.get());
    return out;
}

void
expectSameResults(const std::vector<RunResult> &a,
                  const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].predictorName, b[i].predictorName) << i;
        EXPECT_EQ(a[i].dynamicBranches, b[i].dynamicBranches) << i;
        EXPECT_EQ(a[i].correct, b[i].correct) << i;
    }
}

void
expectSameLedgers(const std::vector<Ledger> &a,
                  const std::vector<Ledger> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        // Order-independent comparison of the per-branch tables.
        std::map<uint64_t, BranchTally> ta(a[i].table().begin(),
                                           a[i].table().end());
        std::map<uint64_t, BranchTally> tb(b[i].table().begin(),
                                           b[i].table().end());
        ASSERT_EQ(ta.size(), tb.size()) << "ledger " << i;
        for (const auto &[pc, tally] : ta) {
            const BranchTally &other = tb.at(pc);
            EXPECT_EQ(tally.execs, other.execs) << pc;
            EXPECT_EQ(tally.correct, other.correct) << pc;
            EXPECT_EQ(tally.taken, other.taken) << pc;
        }
    }
}

/** The reference for runAll: one plain run() per predictor, in order. */
std::vector<RunResult>
serialRuns(const trace::Trace &trace, std::vector<Ledger> &ledgers)
{
    auto zoo = predictorZoo();
    std::vector<RunResult> results;
    ledgers.assign(zoo.size(), Ledger{});
    for (size_t i = 0; i < zoo.size(); ++i)
        results.push_back(run(trace, *zoo[i], &ledgers[i]));
    return results;
}

/** runAll on @p pool (nullptr = the global pool) against serialRuns. */
void
expectRunAllMatchesSerial(ThreadPool *pool)
{
    trace::Trace trace = testTrace();
    std::vector<Ledger> serial_ledgers;
    auto serial = serialRuns(trace, serial_ledgers);

    auto zoo = predictorZoo();
    std::vector<Ledger> ledgers;
    auto results = runAll(trace, raw(zoo), &ledgers, pool);
    expectSameResults(serial, results);
    expectSameLedgers(serial_ledgers, ledgers);
}

TEST(RunAll, PoolOfOneMatchesSerialRuns)
{
    ThreadPool pool(1);
    expectRunAllMatchesSerial(&pool);
}

TEST(RunAll, PoolOfTwoMatchesSerialRuns)
{
    ThreadPool pool(2);
    expectRunAllMatchesSerial(&pool);
}

TEST(RunAll, PoolOfEightMatchesSerialRuns)
{
    ThreadPool pool(8);
    expectRunAllMatchesSerial(&pool);
}

TEST(RunAll, DefaultPoolMatchesSerialRuns)
{
    expectRunAllMatchesSerial(nullptr);
}

TEST(BatchedDriver, TwoLevelBatchMatchesScalarVirtualLoop)
{
    trace::Trace trace = testTrace();

    // Scalar reference: the classic two-virtual-calls-per-branch loop.
    predictor::TwoLevel scalar(predictor::TwoLevelConfig::gshare(12));
    Ledger scalar_ledger;
    uint64_t scalar_correct = 0;
    uint64_t scalar_dynamic = 0;
    for (const auto &rec : trace.records()) {
        if (!rec.isConditional()) {
            scalar.observe(rec);
            continue;
        }
        bool prediction = scalar.predict(rec);
        scalar.update(rec, rec.taken);
        bool correct = prediction == rec.taken;
        ++scalar_dynamic;
        scalar_correct += correct ? 1 : 0;
        scalar_ledger.record(rec.pc, rec.taken, correct);
    }

    // sim::run drives the devirtualized batch override.
    predictor::TwoLevel batched(predictor::TwoLevelConfig::gshare(12));
    Ledger batched_ledger;
    RunResult result = run(trace, batched, &batched_ledger);

    EXPECT_EQ(result.dynamicBranches, scalar_dynamic);
    EXPECT_EQ(result.correct, scalar_correct);
    std::vector<Ledger> a{scalar_ledger};
    std::vector<Ledger> b{batched_ledger};
    expectSameLedgers(a, b);
}

TEST(ParallelOracle, SelectionIsIdenticalAcrossThreadCounts)
{
    trace::Trace trace = workload::makeBenchmarkTrace("go", 20000, 0);
    core::OracleConfig config;
    config.historyDepth = 12;
    config.candidatePool = 6;
    config.mineConditionals = 20000;

    setGlobalPoolThreads(1);
    core::SelectiveOracle reference(trace, config);

    for (unsigned threads : {2u, 8u}) {
        setGlobalPoolThreads(threads);
        core::SelectiveOracle oracle(trace, config);
        for (unsigned size = 1; size <= 3; ++size) {
            EXPECT_DOUBLE_EQ(oracle.accuracyPercent(size),
                             reference.accuracyPercent(size))
                << "threads=" << threads << " size=" << size;
        }
        for (const auto &[pc, sel] : reference.branches()) {
            const core::BranchSelection *other = oracle.branch(pc);
            ASSERT_NE(other, nullptr);
            EXPECT_EQ(sel.correct, other->correct) << pc;
            for (unsigned s = 0; s < 3; ++s) {
                ASSERT_EQ(sel.chosen[s].size(), other->chosen[s].size());
                for (size_t t = 0; t < sel.chosen[s].size(); ++t)
                    EXPECT_TRUE(sel.chosen[s][t] == other->chosen[s][t]);
            }
        }
    }
    setGlobalPoolThreads(0);
}

} // namespace
} // namespace copra::sim
