/**
 * @file
 * copra_check — the differential verification CLI.
 *
 * Default mode replays a range of fuzzed adversarial traces through
 * every predictor pair (optimized vs reference) and exits non-zero on
 * any per-branch prediction mismatch, printing a minimized reproducer.
 *
 * --inject <bug|all> flips into self-test mode: a deliberately broken
 * predictor is swapped in, and the exit code is zero only if the suite
 * *does* catch the bug and shrinks it to a small reproducer — proving
 * the harness can actually detect the class of defect it exists for.
 *
 * --state-gates replays fuzzed traces through the whole factory roster
 * and checks the state contract instead: byte-stable snapshots,
 * reset-replay determinism, and snapshot round-trip completeness
 * (check/state_gates.hpp). --doc-state-budgets regenerates
 * docs/STATE_BUDGETS.md from the same roster (--check FILE gates
 * drift).
 *
 * --ingest-gates verifies the foreign-trace path end to end over a
 * committed sample (--sample): reference ingest, stream-vs-mmap SoA
 * identity of the emitted cache-v2 file, record round-trip,
 * cross-format (text/CSV) agreement, and corruption fuzz
 * (check/ingest_gates.hpp).
 *
 * --hot-gates replays fuzzed traces through the roster's SoA hot path
 * and asserts a steady-state replay performs zero heap allocations
 * (this binary replaces operator new to count — check/alloc_probe.cc)
 * and zero lock acquisitions (check/hot_gates.hpp): the runtime half
 * of the copra_lint hot-path discipline (DESIGN.md §15).
 *
 * Examples:
 *   copra_check                         # 100 traces, all pairs
 *   copra_check --traces 500 --branches 5000
 *   copra_check --pairs pas             # only pairs whose name has "pas"
 *   copra_check --inject all            # harness self-test
 *   copra_check --repro-dir /tmp/repro  # dump reproducer .trace files
 *   copra_check --state-gates --traces 8
 *   copra_check --ingest-gates --sample tests/data/sample_foreign.trace
 *   copra_check --hot-gates --traces 3
 *   copra_check --doc-state-budgets --check docs/STATE_BUDGETS.md
 */

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <sstream>

#include "check/differential.hpp"
#include "check/fuzz.hpp"
#include "check/hot_gates.hpp"
#include "check/ingest_gates.hpp"
#include "check/state_gates.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace {

using namespace copra;

/** Write one failure's reproducer as a text trace under @p dir. */
void
dumpReproducer(const std::string &dir, const check::SuiteFailure &failure)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create " + dir + ": " + ec.message());
        return;
    }
    std::string safe = failure.pair;
    for (char &c : safe) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    std::string path = dir + "/" + safe + "-seed" +
        std::to_string(failure.seed) + ".trace";
    std::ofstream os(path);
    if (!os) {
        warn("cannot write " + path);
        return;
    }
    trace::writeText(failure.reproducer, os);
    std::printf("  reproducer written to %s\n", path.c_str());
}

/**
 * Self-test of the state gates: the tage-shadow-state bug keeps live
 * state outside the registered snapshot fields, so the round-trip
 * (snapshot-completeness) gate — not a reference-model diff — is what
 * must catch it. Returns true when caught.
 */
bool
runShadowStateSelfTest(const check::SuiteOptions &options)
{
    check::CheckPair pair =
        check::injectedBugPair(check::InjectedBug::TageShadowState);
    check::StateGateOptions gate_options;
    gate_options.seedBase = options.seedBase;
    gate_options.traces = options.traces;
    gate_options.conditionals = options.conditionals;
    check::StateGateReport report = check::runStateGates(
        gate_options, {{pair.name, pair.optimized}});
    if (report.ok()) {
        std::printf("MISSED  tage-shadow-state: %llu state-gate checks "
                    "found nothing — the completeness probe failed its "
                    "self-test\n",
                    static_cast<unsigned long long>(report.gatesRun));
        return false;
    }
    const check::StateGateFailure &first = report.failures.front();
    std::printf("caught  %-28s gate=%-14s seed=%llu\n",
                "tage-shadow-state", first.gate.c_str(),
                static_cast<unsigned long long>(first.seed));
    return true;
}

/**
 * Self-test of the hot gates: the hot-path-alloc bug predicts
 * bit-identically, so no differential path can see it — only the
 * steady-state allocation gate can. Returns true when caught (or when
 * the allocation probe is unavailable: sanitizer builds own the
 * allocator, and the Release CI leg carries this proof).
 */
bool
runHotAllocSelfTest(const check::SuiteOptions &options)
{
    if (!check::allocProbeLinked()) {
        std::printf("skipped hot-path-alloc: allocation probe absent "
                    "(sanitizer build owns the allocator)\n");
        return true;
    }
    check::CheckPair pair =
        check::injectedBugPair(check::InjectedBug::HotPathAlloc);
    check::HotGateOptions gate_options;
    gate_options.seedBase = options.seedBase;
    gate_options.traces = options.traces;
    gate_options.conditionals = options.conditionals;
    check::HotGateReport report = check::runHotGates(
        gate_options, {{pair.name, pair.optimized}});
    if (report.ok()) {
        std::printf("MISSED  hot-path-alloc: %llu hot-gate checks "
                    "found nothing — the allocation probe failed its "
                    "self-test\n",
                    static_cast<unsigned long long>(report.gatesRun));
        return false;
    }
    const check::HotGateFailure &first = report.failures.front();
    std::printf("caught  %-28s gate=%-14s seed=%llu\n",
                "hot-path-alloc", first.gate.c_str(),
                static_cast<unsigned long long>(first.seed));
    return true;
}

int
runInjected(const std::string &which, const check::SuiteOptions &options,
            const std::string &repro_dir)
{
    int failed = 0;
    unsigned matched = 0;
    for (unsigned i = 0; i < check::kInjectedBugCount; ++i) {
        auto bug = static_cast<check::InjectedBug>(i);
        if (which != "all" && which != check::injectedBugName(bug))
            continue;
        ++matched;
        if (bug == check::InjectedBug::TageShadowState) {
            if (!runShadowStateSelfTest(options))
                ++failed;
            continue;
        }
        if (bug == check::InjectedBug::HotPathAlloc) {
            if (!runHotAllocSelfTest(options))
                ++failed;
            continue;
        }
        check::CheckPair pair = check::injectedBugPair(bug);
        check::SuiteReport report =
            check::runCheckSuite(options, {pair});
        if (report.ok()) {
            std::printf("MISSED  %s: %llu traces found nothing — the "
                        "harness failed its self-test\n",
                        check::injectedBugName(bug),
                        static_cast<unsigned long long>(report.tracesRun));
            ++failed;
            continue;
        }
        const check::SuiteFailure &first = report.failures.front();
        std::printf("caught  %-28s path=%-8s reproducer=%llu records\n",
                    check::injectedBugName(bug), first.first.path.c_str(),
                    static_cast<unsigned long long>(
                        first.reproducer.size()));
        if (!repro_dir.empty())
            dumpReproducer(repro_dir, first);
    }
    fatalIf(matched == 0,
            "unknown injected bug '" + which +
                "' (see --list-pairs for the injected:* names)");
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    check::SuiteOptions options;
    std::string pairs_filter;
    std::string inject;
    std::string repro_dir;
    bool list_pairs = false;
    bool no_minimize = false;
    bool no_parallel = false;
    uint64_t traces = options.traces;
    uint64_t branches = options.conditionals;
    uint64_t seed_base = options.seedBase;

    OptionParser parser(
        "Differential verification: fuzzed traces through optimized "
        "predictors vs reference models");
    parser.addUint("traces", &traces, "fuzzed traces to replay");
    parser.addUint("branches", &branches,
                   "conditional branches per fuzzed trace");
    parser.addUint("seed-base", &seed_base, "first fuzz seed");
    parser.addString("pairs", &pairs_filter,
                     "only run pairs whose name contains this substring");
    parser.addString("inject", &inject,
                     "self-test: plant a bug (name or 'all') and require "
                     "the suite to catch it");
    parser.addString("repro-dir", &repro_dir,
                     "directory for minimized reproducer .trace files");
    parser.addFlag("list-pairs", &list_pairs, "list pair names and exit");
    parser.addFlag("no-minimize", &no_minimize,
                   "report raw failing traces without shrinking");
    parser.addFlag("no-parallel", &no_parallel,
                   "skip the sharded sim::runAll comparison path");
    bool state_gates = false;
    parser.addFlag("state-gates", &state_gates,
                   "run the snapshot/restore state gates over the whole "
                   "factory roster instead of the differential suite");
    bool hot_gates = false;
    parser.addFlag("hot-gates", &hot_gates,
                   "run the steady-state zero-allocation / zero-lock "
                   "hot-path gates over the whole factory roster");
    bool ingest_gates = false;
    parser.addFlag("ingest-gates", &ingest_gates,
                   "run the foreign-trace ingestion gates (sample "
                   "ingest, stream/mmap identity, round-trip, "
                   "corruption fuzz) over --sample");
    std::string sample_path;
    parser.addString("sample", &sample_path,
                     "with --ingest-gates: committed sample foreign "
                     "trace to gate on");
    bool doc_budgets = false;
    parser.addFlag("doc-state-budgets", &doc_budgets,
                   "print docs/STATE_BUDGETS.md regenerated from the "
                   "factory roster and exit");
    std::string budgets_check;
    parser.addString("check", &budgets_check,
                     "with --doc-state-budgets: compare against this "
                     "file and exit non-zero on drift");
    std::string metrics_out =
        util::envString("COPRA_METRICS_OUT", "");
    bool metrics_summary = false;
    parser.addString("metrics-out", &metrics_out,
                     "write a run-manifest JSON here "
                     "($COPRA_METRICS_OUT; empty = off)");
    parser.addFlag("metrics-summary", &metrics_summary,
                   "print non-zero telemetry instruments to stderr");
    if (!parser.parse(argc, argv))
        return 0;
    obs::setEnabled(!metrics_out.empty() || metrics_summary);

    options.traces = traces;
    options.conditionals = branches;
    options.seedBase = seed_base;
    options.minimize = !no_minimize;
    options.checkParallel = !no_parallel;

    if (list_pairs) {
        for (const check::CheckPair &pair : check::defaultCheckPairs())
            std::printf("%s\n", pair.name.c_str());
        for (unsigned i = 0; i < check::kInjectedBugCount; ++i) {
            std::printf("injected:%s\n", check::injectedBugName(
                static_cast<check::InjectedBug>(i)));
        }
        return 0;
    }

    if (doc_budgets) {
        std::string doc = check::renderStateBudgets();
        if (budgets_check.empty()) {
            std::fputs(doc.c_str(), stdout);
            return 0;
        }
        std::ifstream in(budgets_check, std::ios::binary);
        std::ostringstream committed;
        committed << in.rdbuf();
        if (in && committed.str() == doc)
            return 0;
        std::fprintf(stderr,
                     "%s is stale (or unreadable); regenerate with\n"
                     "  copra_check --doc-state-budgets > %s\n",
                     budgets_check.c_str(), budgets_check.c_str());
        return 1;
    }

    if (ingest_gates) {
        fatalIf(sample_path.empty(),
                "--ingest-gates needs --sample <foreign trace>");
        check::IngestGateOptions gate_options;
        gate_options.samplePath = sample_path;
        gate_options.seedBase = seed_base;
        check::IngestGateReport report =
            check::runIngestGates(gate_options);
        std::fputs(check::formatIngestGateReport(report).c_str(),
                   stdout);
        return report.ok() ? 0 : 1;
    }

    if (state_gates) {
        check::StateGateOptions gate_options;
        gate_options.seedBase = seed_base;
        gate_options.traces = traces;
        gate_options.conditionals = branches;
        check::StateGateReport report =
            check::runStateGates(gate_options);
        std::fputs(check::formatStateGateReport(report).c_str(), stdout);
        return report.ok() ? 0 : 1;
    }

    if (hot_gates) {
        check::HotGateOptions gate_options;
        gate_options.seedBase = seed_base;
        gate_options.traces = traces;
        gate_options.conditionals = branches;
        check::HotGateReport report = check::runHotGates(gate_options);
        std::fputs(check::formatHotGateReport(report).c_str(), stdout);
        return report.ok() ? 0 : 1;
    }

    if (!inject.empty())
        return runInjected(inject, options, repro_dir);

    std::vector<check::CheckPair> pairs;
    for (check::CheckPair &pair : check::defaultCheckPairs()) {
        if (pairs_filter.empty() ||
            pair.name.find(pairs_filter) != std::string::npos)
            pairs.push_back(std::move(pair));
    }
    fatalIf(pairs.empty(),
            "no check pairs match filter '" + pairs_filter + "'");

    check::SuiteReport report = check::runCheckSuite(options, pairs);
    std::fputs(check::formatReport(report).c_str(), stdout);
    if (!repro_dir.empty()) {
        for (const check::SuiteFailure &failure : report.failures)
            dumpReproducer(repro_dir, failure);
    }

    if (obs::enabled()) {
        std::ostringstream line;
        for (int i = 1; i < argc; ++i)
            line << (i > 1 ? " " : "") << argv[i];
        obs::RunInfo info;
        info.tool = "copra_check";
        info.args = line.str();
        info.seed = options.seedBase;
        info.threads = 0;
        if (!metrics_out.empty())
            obs::writeManifest(metrics_out, info);
        if (metrics_summary)
            std::fputs(
                obs::renderSummary(
                    obs::Registry::instance().snapshot())
                    .c_str(),
                stderr);
    }
    return report.ok() ? 0 : 1;
}
