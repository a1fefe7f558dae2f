/**
 * @file
 * The state-contract gates (check/state_gates.hpp) under test: the
 * full factory roster must pass every gate, the planted hidden-state
 * bug must be caught by the round-trip (snapshot-completeness) probe
 * specifically, snapshot primitives must panic loudly on malformed
 * input, the generated STATE_BUDGETS table must cover the roster, and
 * the snapshot bytes of the modern roster after a fixed replay are
 * pinned so internal layout changes cannot move the format.
 */

#include <gtest/gtest.h>

#include "check/differential.hpp"
#include "check/fuzz.hpp"
#include "check/state_gates.hpp"
#include "predictor/factory.hpp"
#include "predictor/state.hpp"
#include "sim/driver.hpp"

using namespace copra;
using namespace copra::check;

TEST(StateGates, WholeRosterPasses)
{
    StateGateOptions options;
    options.seedBase = 11;
    options.traces = 3;
    options.conditionals = 800;
    StateGateReport report = runStateGates(options);
    EXPECT_TRUE(report.ok()) << formatStateGateReport(report);
    // 2 cold gates per spec + 2 per (spec, trace).
    EXPECT_EQ(report.gatesRun, defaultStateRoster().size() * (2 + 2 * 3));
}

TEST(StateGates, ShadowStateBugCaughtByRoundTripOnly)
{
    // The planted bug keeps an allocation ledger outside the registered
    // state fields but clears it in reset(): reset-replay must stay
    // green while the snapshot-completeness probe fails. That split is
    // the point — it proves the round-trip gate detects state the
    // other gates structurally cannot.
    CheckPair pair = injectedBugPair(InjectedBug::TageShadowState);
    StateGateOptions options;
    options.seedBase = 1;
    options.traces = 6;
    options.conditionals = 1500;
    StateGateReport report =
        runStateGates(options, {{pair.name, pair.optimized}});
    ASSERT_FALSE(report.ok());
    for (const StateGateFailure &failure : report.failures)
        EXPECT_EQ(failure.gate, "round-trip") << failure.detail;
}

TEST(StateReader, PastEndReadPanics)
{
    EXPECT_DEATH(
        {
            predictor::state::Reader reader(
                std::span<const uint8_t>{});
            reader.u8();
        },
        "read past the end of a snapshot");
}

TEST(StateRestore, GeometryMismatchPanics)
{
    // Restoring a snapshot into a predictor of a different geometry is
    // a caller bug; the size-prefix tripwire must refuse it loudly
    // rather than silently smearing bytes across the wrong tables.
    predictor::PredictorPtr small = predictor::makePredictor("gshare:h=6");
    std::vector<uint8_t> snap = small->snapshot();
    predictor::PredictorPtr big = predictor::makePredictor("gshare:h=8");
    EXPECT_DEATH(big->restore(snap), "geometry mismatch");
}

TEST(StateBudgets, TableCoversEveryKnownPredictor)
{
    std::string doc = renderStateBudgets();
    for (const std::string &spec : predictor::knownPredictors())
        EXPECT_NE(doc.find("| " + spec + " |"), std::string::npos)
            << "STATE_BUDGETS table is missing spec '" << spec << "'";
}

TEST(StateFormat, ModernRosterSnapshotHashesArePinned)
{
    // stateHash() after replaying fuzz trace 29 through the default
    // TAGE and perceptron geometries and the state-gate ones. The
    // values were recorded from the nested-vector tables and stateless
    // folds; flattened tables and incremental fold channels must
    // serialize to exactly the same bytes. Both the scalar
    // predict()/update() replay and the sim::run driver path must land
    // on the pinned state.
    struct Pin
    {
        const char *spec;
        uint64_t hash;
    };
    const Pin pins[] = {
        {"tage", 0x951c50be81610e4full},
        {"perceptron", 0x135bb302c3027feull},
        {"tage:base=6,tbits=5,tag=7,tables=4,hmin=3,hmax=20",
         0xe063c03d128f43afull},
        {"perceptron:tbits=6,tables=4,seg=6", 0xb0682c6770799645ull},
    };
    trace::Trace trace = fuzzTrace(29, 6000);
    for (const Pin &pin : pins) {
        predictor::PredictorPtr scalar = predictor::makePredictor(pin.spec);
        for (const trace::BranchRecord &rec : trace.records()) {
            if (!rec.isConditional()) {
                scalar->observe(rec);
                continue;
            }
            scalar->predict(rec);
            scalar->update(rec, rec.taken);
        }
        EXPECT_EQ(scalar->stateHash(), pin.hash)
            << pin.spec << " hash 0x" << std::hex << scalar->stateHash();

        predictor::PredictorPtr driven = predictor::makePredictor(pin.spec);
        sim::run(trace, *driven);
        EXPECT_EQ(driven->stateHash(), pin.hash) << pin.spec;
    }
}
