/**
 * @file
 * Implementation of the differential state gates (state_gates.hpp) and
 * the STATE_BUDGETS.md generator. See DESIGN.md §14.
 */

#include "check/state_gates.hpp"

#include <sstream>

#include "check/fuzz.hpp"
#include "predictor/factory.hpp"
#include "trace/trace.hpp"

namespace copra::check {

namespace {

/** Scalar replay of a record window; returns the prediction stream. */
std::vector<uint8_t>
replaySpan(trace::RecordView records, predictor::Predictor &pred)
{
    std::vector<uint8_t> out;
    for (const trace::BranchRecord &rec : records) {
        if (!rec.isConditional()) {
            pred.observe(rec);
            continue;
        }
        bool p = pred.predict(rec);
        pred.update(rec, rec.taken);
        out.push_back(p ? 1 : 0);
    }
    return out;
}

/** Index of the first difference, or npos when equal. */
size_t
firstDiff(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return a.size() == b.size() ? std::string::npos : n;
}

/** The once-per-spec gates: cold snapshots and cold restore. */
void
coldGates(const StatePredictor &entry, StateGateReport &report)
{
    predictor::PredictorPtr a = entry.make();
    predictor::PredictorPtr b = entry.make();

    ++report.gatesRun;
    std::vector<uint8_t> snap = a->snapshot();
    if (a->snapshot() != snap) {
        report.failures.push_back(
            {entry.spec, "byte-stability", 0,
             "two cold snapshots of one instance differ"});
    } else if (b->snapshot() != snap) {
        report.failures.push_back(
            {entry.spec, "byte-stability", 0,
             "cold snapshots of two fresh instances differ"});
    }

    ++report.gatesRun;
    b->restore(snap);
    if (b->stateHash() != a->stateHash()) {
        report.failures.push_back(
            {entry.spec, "cold-restore", 0,
             "restoring a cold snapshot changed the state hash"});
    }
    if (b->stateBits() != a->stateBits()) {
        report.failures.push_back(
            {entry.spec, "cold-restore", 0,
             "restore changed stateBits(): " +
                 std::to_string(a->stateBits()) + " -> " +
                 std::to_string(b->stateBits())});
    }
}

/** reset() must reproduce the cold state and the full replay. */
void
resetReplayGate(const StatePredictor &entry, const trace::Trace &trace,
                uint64_t seed, StateGateReport &report)
{
    ++report.gatesRun;
    predictor::PredictorPtr a = entry.make();
    uint64_t cold_hash = a->stateHash();
    std::vector<uint8_t> first = replaySpan(trace.records(), *a);
    uint64_t warm_hash = a->stateHash();

    if (a->snapshot() != a->snapshot()) {
        report.failures.push_back(
            {entry.spec, "byte-stability", seed,
             "two warm snapshots of one instance differ"});
        return;
    }

    a->reset();
    if (a->stateHash() != cold_hash) {
        report.failures.push_back(
            {entry.spec, "reset-replay", seed,
             "reset() does not reproduce the cold state hash"});
        return;
    }
    std::vector<uint8_t> second = replaySpan(trace.records(), *a);
    size_t diff = firstDiff(first, second);
    if (diff != std::string::npos) {
        report.failures.push_back(
            {entry.spec, "reset-replay", seed,
             "replay after reset() diverges at conditional " +
                 std::to_string(diff)});
        return;
    }
    if (a->stateHash() != warm_hash) {
        report.failures.push_back(
            {entry.spec, "reset-replay", seed,
             "replay after reset() ends at a different state hash"});
    }
}

/**
 * The snapshot-completeness probe: a clone restored mid-trace must
 * finish the trace in lockstep with the original. Any live state that
 * snapshotState() misses shows up as a suffix divergence here.
 */
void
roundTripGate(const StatePredictor &entry, const trace::Trace &trace,
              uint64_t seed, StateGateReport &report)
{
    ++report.gatesRun;
    trace::RecordView records = trace.records();
    size_t half = records.size() / 2;

    predictor::PredictorPtr original = entry.make();
    replaySpan(records.subspan(0, half), *original);

    std::vector<uint8_t> snap = original->snapshot();
    predictor::PredictorPtr clone = entry.make();
    clone->restore(snap);

    if (clone->snapshot() != snap) {
        report.failures.push_back(
            {entry.spec, "byte-stability", seed,
             "restore -> snapshot is not the identity"});
        return;
    }
    if (clone->stateHash() != original->stateHash()) {
        report.failures.push_back(
            {entry.spec, "round-trip", seed,
             "restored clone hashes differently from the original"});
        return;
    }

    std::vector<uint8_t> suffix_original =
        replaySpan(records.subspan(half), *original);
    std::vector<uint8_t> suffix_clone =
        replaySpan(records.subspan(half), *clone);
    size_t diff = firstDiff(suffix_original, suffix_clone);
    if (diff != std::string::npos) {
        report.failures.push_back(
            {entry.spec, "round-trip", seed,
             "restored clone diverges at suffix conditional " +
                 std::to_string(diff) +
                 " — snapshotState() missed live state"});
        return;
    }
    if (clone->stateHash() != original->stateHash()) {
        report.failures.push_back(
            {entry.spec, "round-trip", seed,
             "clone and original end the suffix at different hashes"});
    }
}

} // namespace

std::vector<StatePredictor>
defaultStateRoster()
{
    // Small geometries for the same reason defaultCheckPairs uses
    // them: tiny tables force the aliasing, allocation, and eviction
    // paths whose state a snapshot is most likely to miss.
    std::vector<std::string> specs = {
        "taken",
        "nottaken",
        "btfnt",
        "bimodal:bits=6",
        "gshare:h=7",
        "gag:h=7",
        "gas:h=6,s=3",
        "pas:h=6,bht=5,s=3",
        "pag:h=6,bht=5",
        "gskewed:h=7,bank=6",
        "ifgshare:h=7",
        "ifpas:h=6",
        "path:n=4,b=2,pht=8",
        "loop",
        "block",
        "fixed:k=2",
        "hybrid:a=gshare.h=6,b=pas.h=5,chooser=6",
        "tage:base=6,tbits=5,tag=7,tables=4,hmin=3,hmax=20",
        "perceptron:tbits=6,tables=4,seg=6",
        "tournament:gh=7,lh=6,bht=5,s=3,chooser=6,btbsets=4,btbways=2,"
        "ras=4",
    };
    std::vector<StatePredictor> roster;
    roster.reserve(specs.size());
    for (const std::string &spec : specs)
        roster.push_back(
            {spec, [spec] { return predictor::makePredictor(spec); }});
    return roster;
}

StateGateReport
runStateGates(const StateGateOptions &options,
              const std::vector<StatePredictor> &roster)
{
    StateGateReport report;
    for (const StatePredictor &entry : roster) {
        coldGates(entry, report);
        for (uint64_t seed = options.seedBase;
             seed < options.seedBase + options.traces; ++seed) {
            trace::Trace trace = fuzzTrace(seed, options.conditionals);
            resetReplayGate(entry, trace, seed, report);
            roundTripGate(entry, trace, seed, report);
        }
    }
    return report;
}

std::string
formatStateGateReport(const StateGateReport &report)
{
    std::ostringstream os;
    os << "state gates: " << report.gatesRun << " checks, "
       << report.failures.size() << " failure(s)\n";
    for (const StateGateFailure &f : report.failures) {
        os << "  FAIL " << f.spec << " [" << f.gate << "]";
        if (f.seed != 0)
            os << " seed=" << f.seed;
        os << ": " << f.detail << "\n";
    }
    return os.str();
}

std::string
renderStateBudgets()
{
    // The documented budgets use the factory defaults, not the small
    // gate geometries — this table is about the roster as shipped.
    std::ostringstream os;
    os << "# Predictor state budgets\n"
          "\n"
          "Generated by `copra_check --doc-state-budgets`; the\n"
          "`state_budgets_doc_drift` ctest gate fails when this file\n"
          "drifts from the factory roster. Regenerate with:\n"
          "\n"
          "    build/tools/copra_check --doc-state-budgets > "
          "docs/STATE_BUDGETS.md\n"
          "\n"
          "Cold is `stateBits()` of a fresh default-geometry instance;\n"
          "warm is after replaying the fixed fuzz trace `fuzz-7` (4000\n"
          "conditionals). The columns differ exactly for the predictors\n"
          "whose tables allocate on demand (the interference-free and\n"
          "fixed-pattern instruments). Inter-call latches and telemetry\n"
          "are serialized by snapshots but not counted (DESIGN.md §14).\n"
          "\n"
          "| spec | name | cold bits | warm bits |\n"
          "|---|---|---:|---:|\n";
    trace::Trace warmup = fuzzTrace(7, 4000);
    for (const std::string &spec : predictor::knownPredictors()) {
        predictor::PredictorPtr pred = predictor::makePredictor(spec);
        uint64_t cold = pred->stateBits();
        replaySpan(warmup.records(), *pred);
        os << "| " << spec << " | " << pred->name() << " | " << cold
           << " | " << pred->stateBits() << " |\n";
    }
    return os.str();
}

} // namespace copra::check
