/**
 * @file
 * Runtime companion to the compile-time predictor contracts: the
 * static_asserts in predictor/contracts.hpp prove the roster's shape;
 * these tests prove the behavioural half on live instances — every
 * factory spec constructs, names itself, resets, and keeps the batch
 * entry point equivalent to the scalar predict/update loop.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "predictor/contracts.hpp"
#include "predictor/factory.hpp"

namespace {

using copra::predictor::makePredictor;
using copra::predictor::knownPredictors;

TEST(PredictorContracts, RosterIsStaticallyValidated)
{
    // Compile-time fact re-stated at runtime so a test run documents
    // that the contract layer was actually built in.
    static_assert(copra::predictor::contracts::kRosterValidated);
    SUCCEED();
}

TEST(PredictorContracts, EveryFactorySpecConstructsAndNames)
{
    for (const std::string &spec : knownPredictors()) {
        auto pred = makePredictor(spec);
        ASSERT_NE(pred, nullptr) << spec;
        EXPECT_FALSE(pred->name().empty()) << spec;
        pred->reset(); // must be callable on a fresh instance
    }
}

TEST(PredictorContracts, BatchEntryPointMatchesScalarLoop)
{
    copra::trace::Trace trace = copra::check::fuzzTrace(7, 4000);
    std::vector<copra::trace::BranchRecord> conds;
    std::vector<uint64_t> pc, target;
    std::vector<uint8_t> taken;
    for (const auto &rec : trace.records()) {
        if (!rec.isConditional())
            continue;
        conds.push_back(rec);
        pc.push_back(rec.pc);
        target.push_back(rec.target);
        taken.push_back(rec.taken ? 1 : 0);
    }
    ASSERT_FALSE(conds.empty());
    copra::predictor::SoaBatch batch{pc.data(), target.data(),
                                     taken.data(), conds.size()};

    for (const std::string &spec : knownPredictors()) {
        auto batched = makePredictor(spec);
        auto scalar = makePredictor(spec);
        std::vector<uint8_t> correct_out(conds.size(), 2);
        uint64_t batch_correct =
            batched->predictUpdateSoa(batch, correct_out.data());
        uint64_t scalar_correct = 0;
        for (size_t i = 0; i < conds.size(); ++i) {
            const auto &rec = conds[i];
            bool correct = scalar->predict(rec) == rec.taken;
            scalar->update(rec, rec.taken);
            scalar_correct += correct ? 1 : 0;
            ASSERT_EQ(correct_out[i], correct ? 1 : 0)
                << spec << " branch " << i;
        }
        EXPECT_EQ(batch_correct, scalar_correct) << spec;
    }
}

} // namespace
