#include "pipeline.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <malloc.h>
#include <unistd.h>

#include "core/h2p.hpp"
#include "core/oracle.hpp"
#include "core/pa_class.hpp"
#include "predictor/factory.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

namespace perfbench {

namespace core = copra::core;
namespace sim = copra::sim;

namespace {

constexpr SpecDef kGshare{"gshare", "gshare"};
constexpr SpecDef kPas{"pas", "pas"};
constexpr SpecDef kIfGshare{"if_gshare", "ifgshare"};
constexpr SpecDef kTage{"tage", "tage"};
constexpr SpecDef kPerceptron{"perceptron", "perceptron"};
constexpr SpecDef kTournament{"tournament", "tournament"};

std::vector<uint64_t>
h2pPcs(const core::H2pReport &report)
{
    std::vector<uint64_t> pcs;
    pcs.reserve(report.branches.size());
    for (const core::H2pBranch &b : report.branches)
        pcs.push_back(b.pc);
    return pcs;
}

/** Shortest text that round-trips a double, so digests are exact. */
std::string
exact(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
fnv1aHex(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

bool
sameTallies(const sim::Ledger &a, const sim::Ledger &b)
{
    if (a.staticBranches() != b.staticBranches())
        return false;
    for (const auto &[pc, tally] : a.table()) {
        sim::BranchTally other = b.branch(pc);
        if (other.execs != tally.execs || other.correct != tally.correct ||
            other.taken != tally.taken)
            return false;
    }
    return true;
}

} // namespace

std::optional<Workload>
findWorkload(const std::string &name)
{
    const auto &paper = copra::workload::benchmarkNames();
    const std::vector<SpecDef> roster{kGshare, kTage, kPerceptron,
                                      kTournament};
    if (name == "split-warm")
        return Workload{name, Pipeline::Split,
                        copra::workload::workloadSuiteNames(), 750'000,
                        {kGshare, kPas}, false};
    if (name == "roster-modern")
        return Workload{name, Pipeline::Roster, paper, 150'000, roster,
                        false};
    if (name == "oracle-analysis")
        return Workload{name, Pipeline::Oracle, paper, 60'000,
                        {kIfGshare}, false};
    if (name == "roster-par")
        return Workload{name, Pipeline::Roster, paper, 150'000, roster,
                        true};
    return std::nullopt;
}

core::ExperimentConfig
configFor(const Workload &w, uint64_t seed)
{
    core::ExperimentConfig config;
    config.branches = w.branches;
    config.seed = seed;
    return config;
}

int
SpanRecorder::open(const std::string &name, int parent, int member)
{
    if (!enabled_)
        return -1;
    double start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, start, parent, member});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    double end = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = end;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

MemberResult
runMember(const Workload &w, const core::ExperimentConfig &config,
          size_t index, SpanRecorder &rec, int parent)
{
    const int id = static_cast<int>(index);
    Scope member(rec, "member", parent, id);
    const int p = member.id();

    MemberResult m;
    m.name = w.members[index];
    double rssBefore = rec.enabled() ? memoryInUseMb() : 0.0;
    copra::trace::Trace trace;
    {
        Scope s(rec, "trace.load", p, id);
        trace = core::makeExperimentTrace(m.name, config);
    }
    {
        Scope s(rec, "trace.soa", p, id);
        trace.soa();
    }
    if (rec.enabled())
        m.loadRssMb = memoryInUseMb() - rssBefore;
    m.conditionals = trace.conditionalCount();

    for (const SpecDef &spec : w.specs) {
        SpecRun run;
        copra::predictor::PredictorPtr pred;
        {
            Scope s(rec, std::string("predictor.make.") + spec.label, p,
                    id);
            pred = copra::predictor::makePredictor(spec.spec);
        }
        {
            Scope s(rec, std::string("sim.pass.") + spec.label, p, id);
            run.result = sim::run(trace, *pred, &run.ledger);
        }
        run.stateBits = pred->stateBits();
        m.runs.push_back(std::move(run));
    }

    switch (w.pipeline) {
    case Pipeline::Split: {
        {
            Scope s(rec, "core.ideal_static", p, id);
            m.idealStatic = core::idealStaticLedger(m.runs[0].ledger);
        }
        Scope s(rec, "core.best_of", p, id);
        m.split = core::bestOfSplit(m.runs[0].ledger, m.runs[1].ledger,
                                    m.idealStatic);
        break;
    }
    case Pipeline::Roster: {
        std::vector<const sim::Ledger *> all;
        for (const SpecRun &run : m.runs)
            all.push_back(&run.ledger);
        {
            Scope s(rec, "core.best_of", p, id);
            m.bestOf = core::bestPerBranchLedger(all);
        }
        Scope s(rec, "core.h2p", p, id);
        for (const sim::Ledger *ledger : all)
            m.h2pSets.push_back(h2pPcs(core::identifyH2p(*ledger)));
        core::H2pReport best = core::identifyH2p(m.bestOf);
        m.h2pSets.push_back(h2pPcs(best));
        m.h2pDynamic = best.dynamicBranches;
        m.cdfMispredicts = core::mispredictCdf(m.bestOf).totalMispredicts;
        break;
    }
    case Pipeline::Oracle: {
        {
            Scope s(rec, "core.oracle", p, id);
            core::OracleConfig oc;
            oc.historyDepth = config.historyDepth;
            oc.candidatePool = config.candidatePool;
            oc.maxSelect = 3;
            oc.mineConditionals = config.mineConditionals;
            core::SelectiveOracle oracle(trace, oc);
            m.oracle3 = oracle.toLedger(3);
            for (const auto &[pc, sel] : oracle.branches()) {
                m.oracleExecs += sel.execs;
                for (int size = 0; size < 3; ++size)
                    m.selCorrect[size] += sel.correct[size];
            }
        }
        {
            Scope s(rec, "core.classifier", p, id);
            core::PaClassifier classifier(trace, config.ifPasHistory);
            m.bestPa = classifier.bestPaLedger();
            m.classFractions = classifier.classFractions();
        }
        {
            Scope s(rec, "core.ideal_static", p, id);
            m.idealStatic = core::idealStaticLedger(m.runs[0].ledger);
        }
        Scope s(rec, "core.best_of", p, id);
        sim::Ledger global = core::maxLedger(m.runs[0].ledger, m.oracle3);
        m.split = core::bestOfSplit(global, m.bestPa, m.idealStatic);
        break;
    }
    }
    return m;
}

void
CheckTally::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what);
}

void
checkInvariants(const Workload &w, const MemberResult &m, CheckTally &tally)
{
    for (size_t i = 0; i < w.specs.size(); ++i) {
        const SpecRun &run = m.runs[i];
        tally.expect(run.ledger.dynamic() == m.conditionals &&
                         run.result.dynamicBranches == run.ledger.dynamic() &&
                         run.result.correct == run.ledger.correct(),
                     m.name + "/" + w.specs[i].label +
                         ": ledger does not cover the trace or disagrees "
                         "with the run totals");
    }
    auto splitSumsToOne = [&](const core::BestOfSplit &split) {
        double sum = split.fracA + split.fracB + split.fracStatic;
        tally.expect(std::fabs(sum - 1.0) < 1e-9,
                     m.name + ": split fractions sum to " + exact(sum));
    };
    switch (w.pipeline) {
    case Pipeline::Split:
        tally.expect(m.idealStatic.dynamic() == m.conditionals,
                     m.name + ": ideal-static ledger coverage");
        splitSumsToOne(m.split);
        break;
    case Pipeline::Roster:
        tally.expect(m.bestOf.dynamic() == m.conditionals,
                     m.name + ": best-of ledger coverage");
        tally.expect(m.h2pDynamic == m.conditionals &&
                         m.cdfMispredicts ==
                             m.bestOf.dynamic() - m.bestOf.correct(),
                     m.name + ": H2P report or CDF totals disagree with "
                              "the best-of ledger");
        break;
    case Pipeline::Oracle: {
        tally.expect(m.oracle3.dynamic() == m.conditionals &&
                         m.oracleExecs == m.conditionals,
                     m.name + ": oracle coverage");
        double classSum = 0.0;
        for (double f : m.classFractions)
            classSum += f;
        tally.expect(m.bestPa.dynamic() == m.conditionals &&
                         std::fabs(classSum - 1.0) < 1e-9,
                     m.name + ": classifier coverage or class fractions");
        tally.expect(m.idealStatic.dynamic() == m.conditionals,
                     m.name + ": ideal-static ledger coverage");
        splitSumsToOne(m.split);
        break;
    }
    }
}

std::string
digest(const Workload &w, const MemberResult &m)
{
    std::ostringstream text;
    text << w.name << ' ' << m.name << ' ' << m.conditionals << '\n';
    for (size_t i = 0; i < w.specs.size(); ++i) {
        const sim::RunResult &r = m.runs[i].result;
        text << w.specs[i].label << ' ' << r.correct << ' '
             << r.dynamicBranches - r.correct << '\n';
    }
    auto putSplit = [&](const core::BestOfSplit &s) {
        text << "split " << exact(s.fracA) << ' ' << exact(s.fracB) << ' '
             << exact(s.fracStatic) << ' ' << exact(s.staticBiasedFraction)
             << '\n';
    };
    switch (w.pipeline) {
    case Pipeline::Split:
        putSplit(m.split);
        break;
    case Pipeline::Roster:
        for (const std::vector<uint64_t> &set : m.h2pSets) {
            text << "h2p " << set.size();
            for (uint64_t pc : set)
                text << ' ' << pc;
            text << '\n';
        }
        text << "cdf " << m.cdfMispredicts << '\n';
        break;
    case Pipeline::Oracle:
        text << "sel " << m.selCorrect[0] << ' ' << m.selCorrect[1] << ' '
             << m.selCorrect[2] << '\n';
        text << "classes";
        for (double f : m.classFractions)
            text << ' ' << exact(f);
        text << '\n';
        putSplit(m.split);
        break;
    }
    return fnv1aHex(text.str());
}

void
checkScalarReplay(const Workload &w, const MemberResult &m,
                  const copra::trace::Trace &trace, CheckTally &tally)
{
    for (size_t i = 0; i < w.specs.size(); ++i) {
        copra::predictor::PredictorPtr pred =
            copra::predictor::makePredictor(w.specs[i].spec);
        sim::Ledger replay;
        for (size_t k = 0; k < trace.size(); ++k) {
            const copra::trace::BranchRecord &r = trace[k];
            if (!r.isConditional()) {
                pred->observe(r);
                continue;
            }
            bool guess = pred->predict(r);
            pred->update(r, r.taken);
            replay.record(r.pc, r.taken, guess == r.taken);
        }
        tally.expect(sameTallies(replay, m.runs[i].ledger),
                     m.name + "/" + w.specs[i].label +
                         ": scalar predict()/update() replay disagrees "
                         "with the ledger");
    }
}

double
memoryInUseMb()
{
    struct mallinfo2 heap = mallinfo2();
    double bytes = static_cast<double>(heap.uordblks + heap.hblkhd);
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0, resident = 0, fileBacked = 0;
    if (statm >> size >> resident >> fileBacked)
        bytes += static_cast<double>(fileBacked) *
            static_cast<double>(sysconf(_SC_PAGESIZE));
    return bytes / (1024.0 * 1024.0);
}

} // namespace perfbench
