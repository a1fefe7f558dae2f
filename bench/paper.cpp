/**
 * @file
 * The paper reproduction driver. Each of the paper's tables and figures
 * is one section of the table below: its roster, its default budget, a
 * per-member row producer and the tables its rows print as. The driver
 * groups the chosen sections by resolved ExperimentConfig, runs one
 * runSuite() pass per group over the union of their rosters, and prints
 * the sections in paper order. Within a pass every member is one
 * BenchmarkExperiment, so its trace, ledgers, selective oracle and PA
 * classifier are built once and read by every section that needs them.
 *
 * Built plainly this is copra_paper, which prints all ten sections.
 * Each harness binary (table1_benchmarks ... fig10_modern_roster) is
 * this source built with COPRA_PAPER_SECTION set to its own name: the
 * same driver with that one section fixed, printing what the harness
 * always printed.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/h2p.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

#ifndef COPRA_PAPER_SECTION
#define COPRA_PAPER_SECTION ""
#endif

namespace copra::bench {
namespace {

using core::BenchmarkExperiment;
using Names = std::vector<std::string>;
using Cells = std::vector<double>; //!< one member's values, in column order

/** Column precision that prints the value as an integer count. */
constexpr int kCount = -1;

/**
 * One printed table of a section: a "benchmark" column of member names,
 * then one column per header consuming the next cell of each member's
 * row, printed at that column's precision.
 */
struct TableSpec
{
    std::vector<std::string> headers; //!< value columns only
    //! per column (or kCount); the last entry repeats for the rest
    std::vector<int> precision;
    bool average = false;             //!< close with an "average" row
    const char *lead = "";            //!< printed before the table
};

/** One paper table or figure, exactly as its harness prints it. */
struct Section
{
    const char *harness;     //!< binary name; timing= and manifest tool
    const char *description; //!< the harness's --help line
    const char *title;       //!< banner
    const Names &(*roster)();
    std::function<Cells(BenchmarkExperiment &)> produce;
    std::vector<TableSpec> tables;
    const char *note = ""; //!< closing line ("" = none)
    //! default --branches and --mine of the section (0 = the shared ones)
    uint64_t budget = 0;
};

Cells
splitCells(const core::BestOfSplit &split)
{
    return {100.0 * split.fracA, 100.0 * split.fracB,
            100.0 * split.fracStatic, 100.0 * split.staticBiasedFraction};
}

Cells
table1Cells(BenchmarkExperiment &experiment)
{
    const trace::TraceStats &stats = experiment.stats();
    double dynamic = static_cast<double>(stats.dynamicBranches());
    return {dynamic, static_cast<double>(stats.staticBranches()),
            100.0 * stats.dynamicTaken() / stats.dynamicBranches(),
            100.0 * stats.dynamicFractionWithBiasAbove(0.99),
            100.0 * stats.idealStaticCorrect() / stats.dynamicBranches(),
            static_cast<double>(workload::paperReference(experiment.name())
                                    .paperDynamicBranches)};
}

const std::vector<unsigned> kFig5Depths = {8, 12, 16, 20, 24, 28, 32};
const std::vector<double> kFig9Percentiles = {0,  5,  10, 25, 50,
                                              75, 90, 95, 100};

/**
 * Fig. 10: accuracy of gshare and the modern roster, then the H2P
 * counts per predictor and under their per-branch best-of.
 */
Cells
fig10Cells(BenchmarkExperiment &experiment)
{
    const sim::Ledger *all[4] = {
        &experiment.gshareLedger(), &experiment.ledgerFor("tage"),
        &experiment.ledgerFor("perceptron"),
        &experiment.ledgerFor("tournament")};
    Cells cells;
    for (const sim::Ledger *ledger : all)
        cells.push_back(ledger->accuracyPercent());
    for (const sim::Ledger *ledger : all)
        cells.push_back(static_cast<double>(
            core::identifyH2p(*ledger).branches.size()));
    sim::Ledger best =
        core::bestPerBranchLedger({all[0], all[1], all[2], all[3]});
    core::H2pReport report = core::identifyH2p(best);
    core::MispredictCdf cdf = core::mispredictCdf(best);
    cells.insert(cells.end(),
                 {static_cast<double>(report.branches.size()),
                  100.0 * report.staticFraction(),
                  100.0 * report.mispredictFraction(),
                  100.0 * cdf.fractionFromTopPercent(1.0),
                  100.0 * cdf.fractionFromTopPercent(10.0)});
    return cells;
}

/** The paper's tables and figures, in paper order. */
const std::vector<Section> &
sections()
{
    static const std::vector<Section> table = [] {
        const auto paper = &workload::benchmarkNames;
        const auto suite = &workload::workloadSuiteNames;
        std::vector<std::string> depths, percentiles;
        for (unsigned d : kFig5Depths)
            depths.push_back("n=" + std::to_string(d));
        for (double p : kFig9Percentiles)
            percentiles.push_back("p" + std::to_string(static_cast<int>(p)));
        auto split_tables = [](const char *a, const char *b) {
            return std::vector<TableSpec>{
                {{a, b, "ideal static best %", "static >99% biased %"},
                 {1},
                 true}};
        };
        return std::vector<Section>{
            {"table1_benchmarks",
             "Table 1: benchmark suite summary (synthetic SPECint95 "
             "substitution)",
             "Table 1: benchmark summary", paper, table1Cells,
             {{{"dyn branches", "static", "taken %", ">99% biased %",
                "ideal static %", "paper dyn branches"},
               {kCount, kCount, 1, 1, 2, kCount}}}},
            {"fig4_selective_history",
             "Figure 4: selective history (1/2/3 oracle-chosen branches) "
             "vs gshare and IF gshare",
             "Figure 4: selective history vs gshare", suite,
             [](BenchmarkExperiment &experiment) {
                 core::Fig4Row row = experiment.fig4Row();
                 return Cells{row.selective1, row.selective2,
                              row.selective3, row.ifGshare, row.gshare};
             },
             {{{"IF sel-1", "IF sel-2", "IF sel-3", "IF gshare", "gshare"},
               {2}}},
             "paper shape: sel-1 already respectable; sel-3 close to IF "
             "gshare; gshare below IF gshare."},
            {"fig5_history_length",
             "Figure 5: 3-branch selective history accuracy vs history "
             "window depth (8..32)",
             "Figure 5: accuracy vs history length (3-branch selective)",
             suite,
             [](BenchmarkExperiment &experiment) {
                 Cells cells;
                 for (const auto &[depth, accuracy] :
                      experiment.fig5Series(kFig5Depths))
                     cells.push_back(accuracy);
                 return cells;
             },
             {{depths, {2}}},
             "paper shape: slow growth up to n~20, little beyond "
             "(correlated branches are nearby).",
             500000},
            {"table2_gshare_corr",
             "Table 2: gshare / gshare w\\ Corr / IF gshare / IF gshare "
             "w\\ Corr",
             "Table 2: correlation gshare fails to exploit", paper,
             [](BenchmarkExperiment &experiment) {
                 core::Table2Row row = experiment.table2Row();
                 const auto &ref = workload::paperReference(row.name);
                 return Cells{row.gshare, row.gshareWithCorr, row.ifGshare,
                              row.ifGshareWithCorr, ref.gshare,
                              ref.gshareWithCorr, ref.ifGshare,
                              ref.ifGshareWithCorr};
             },
             {{{"gshare", "gshare w/Corr", "IF gshare", "IF gshare w/Corr",
                "paper gshare", "paper gsh w/Corr", "paper IF",
                "paper IF w/Corr"},
               {2}}},
             "paper shape: w/Corr > base for every benchmark, with the "
             "largest gains on gcc and go."},
            {"fig6_pa_classes",
             "Figure 6: per-address predictability classes, "
             "dynamic-weighted",
             "Figure 6: per-address class distribution", suite,
             [](BenchmarkExperiment &experiment) {
                 core::Fig6Row row = experiment.fig6Row();
                 Cells cells;
                 for (double fraction : row.fractions)
                     cells.push_back(100.0 * fraction);
                 cells.push_back(100.0 * row.staticBiasedFraction);
                 return cells;
             },
             {{{"ideal static %", "loop %", "repeating %",
                "non-repeating %", "static bucket >99% biased %"},
               {1}, true}},
             "paper shape: about half ideal-static (88% of that >99% "
             "biased), about a third non-repeating, about a sixth loop, "
             "repeating infrequent."},
            {"table3_pas_loop",
             "Table 3: PAs / PAs w\\ Loop / IF PAs / IF PAs w\\ Loop",
             "Table 3: loop predictability PAs misses", paper,
             [](BenchmarkExperiment &experiment) {
                 core::Table3Row row = experiment.table3Row();
                 const auto &ref = workload::paperReference(row.name);
                 return Cells{row.pas, row.pasWithLoop, row.ifPas,
                              row.ifPasWithLoop, ref.pas, ref.pasWithLoop,
                              ref.ifPas, ref.ifPasWithLoop};
             },
             {{{"PAs", "PAs w/Loop", "IF PAs", "IF PAs w/Loop",
                "paper PAs", "paper PAs w/Loop", "paper IF PAs",
                "paper IF w/Loop"},
               {2}}},
             "paper shape: the loop enhancement helps every benchmark, "
             "most on gcc/go/ijpeg/m88ksim."},
            {"fig7_gshare_pas_static",
             "Figure 7: best of {gshare, PAs, ideal static}, "
             "dynamic-weighted",
             "Figure 7: gshare / PAs / ideal-static split", suite,
             [](BenchmarkExperiment &experiment) {
                 return splitCells(experiment.fig7Split());
             },
             split_tables("gshare best %", "PAs best %"),
             "paper averages: gshare best 29%, PAs best 16%, ideal static "
             "55% (83% of it >99% biased)."},
            {"fig8_class_distribution",
             "Figure 8: best of {global correlation, per-address classes, "
             "ideal static}, dynamic-weighted",
             "Figure 8: global / per-address / ideal-static split", suite,
             [](BenchmarkExperiment &experiment) {
                 return splitCells(experiment.fig8Split());
             },
             split_tables("global best %", "per-address best %"),
             "paper averages: global 38%, per-address 22%, ideal static "
             "40% (92% of it >99% biased)."},
            {"fig9_gshare_vs_pas",
             "Figure 9: percentile curve of per-branch gshare - PAs "
             "accuracy difference",
             "Figure 9: gshare - PAs accuracy difference", suite,
             [](BenchmarkExperiment &experiment) {
                 WeightedPercentiles curve =
                     experiment.fig9Percentiles();
                 Cells cells;
                 for (double p : kFig9Percentiles)
                     cells.push_back(curve.percentile(p));
                 return cells;
             },
             {{percentiles, {1}}},
             "paper reference (gcc): p10 ~ -7.0 (PAs better), p90 ~ +10.4 "
             "(gshare better); perl much flatter."},
            {"fig10_modern_roster",
             "Figure 10 (extension): modern roster accuracy (TAGE-lite, "
             "perceptron, tournament) and H2P analysis under the "
             "per-branch best-of combination",
             "Figure 10: modern roster (TAGE / perceptron / tournament) "
             "+ H2P",
             paper, fig10Cells,
             {{{"gshare %", "TAGE %", "perceptron %", "tournament %"},
               {2}, true},
              {{"gshare", "TAGE", "perceptron", "tournament", "best-of",
                "static %", "mispred %", "top 1% CDF", "top 10% CDF"},
               {kCount, kCount, kCount, kCount, kCount, 1},
               false,
               "\nH2P branches (>=1k execs, <99% accuracy) per predictor, "
               "and under the per-branch best-of:\n\n"}},
             "extension of the paper's per-branch analysis; H2P criterion "
             "after Lin & Tarsa (no paper counterpart)."},
        };
    }();
    return table;
}

void
addCell(Table &table, const TableSpec &spec, size_t column, double value)
{
    int precision =
        spec.precision[std::min(column, spec.precision.size() - 1)];
    if (precision == kCount)
        table.cell(static_cast<uint64_t>(value));
    else
        table.cell(value, precision);
}

/** Print @p section's tables and note over @p rows (its roster order). */
void
printSection(const Section &section, const std::vector<Cells> &rows,
             bool csv)
{
    const Names &names = section.roster();
    size_t first = 0;
    for (const TableSpec &spec : section.tables) {
        std::fputs(spec.lead, stdout);
        std::vector<std::string> headers = {"benchmark"};
        headers.insert(headers.end(), spec.headers.begin(),
                       spec.headers.end());
        Table table(headers);
        Cells sums(spec.headers.size());
        for (size_t i = 0; i < rows.size(); ++i) {
            table.row().cell(names[i]);
            for (size_t c = 0; c < sums.size(); ++c) {
                addCell(table, spec, c, rows[i][first + c]);
                sums[c] += rows[i][first + c];
            }
        }
        if (spec.average) {
            table.row().cell("average");
            for (size_t c = 0; c < sums.size(); ++c)
                addCell(table, spec, c, sums[c] / rows.size());
        }
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        first += sums.size();
    }
    if (*section.note)
        std::printf("\n%s\n", section.note);
}

bool
inRoster(const Section &section, const std::string &name)
{
    const Names &roster = section.roster();
    return std::find(roster.begin(), roster.end(), name) != roster.end();
}

/** Sections sharing one resolved config, and their suite pass. */
struct Pass
{
    BenchOptions opts;            //!< the run's options at this config
    std::vector<size_t> sections; //!< indices into the chosen sections
    SuiteTiming timing;
};

/**
 * Run the sections named @p only ("" = all) and print them. Sections
 * whose configs resolve equal share one suite pass.
 */
int
paperMain(int argc, char **argv, const std::string &only)
{
    std::vector<const Section *> chosen;
    for (const Section &section : sections())
        if (only.empty() || only == section.harness)
            chosen.push_back(&section);
    panicIf(chosen.empty(), "no paper section named " + only);
    const char *tool = only.empty() ? "copra_paper" : chosen[0]->harness;

    BenchOptions opts;
    if (!opts.parse(argc, argv,
                    only.empty() ? "The paper's tables and figures (Table 1 "
                                   "... Figure 10), each product computed "
                                   "once per benchmark"
                                 : chosen[0]->description))
        return 0;

    std::vector<Pass> passes;
    std::vector<size_t> pass_of(chosen.size());
    for (size_t s = 0; s < chosen.size(); ++s) {
        BenchOptions resolved = opts;
        if (uint64_t budget = chosen[s]->budget) {
            if (!opts.branchesGiven)
                resolved.config.branches = budget;
            if (!opts.mineGiven)
                resolved.config.mineConditionals = budget;
        }
        auto same = [&](const Pass &pass) {
            return pass.opts.config == resolved.config;
        };
        pass_of[s] = static_cast<size_t>(
            std::find_if(passes.begin(), passes.end(), same) -
            passes.begin());
        if (pass_of[s] == passes.size())
            passes.push_back({resolved, {}, {}});
        passes[pass_of[s]].sections.push_back(s);
    }

    std::vector<std::vector<Cells>> rows(chosen.size());
    for (Pass &pass : passes) {
        Names members;
        for (const std::string &name : workload::workloadSuiteNames())
            if (std::any_of(pass.sections.begin(), pass.sections.end(),
                            [&](size_t s) {
                                return inRoster(*chosen[s], name);
                            }))
                members.push_back(name);
        // Each member's cells per section of the pass (empty when the
        // member is outside that section's roster).
        auto produced = runSuite(
            pass.opts, &pass.timing, members,
            [&](BenchmarkExperiment &experiment) {
                std::vector<Cells> cells(pass.sections.size());
                for (size_t k = 0; k < pass.sections.size(); ++k) {
                    const Section &section = *chosen[pass.sections[k]];
                    if (inRoster(section, experiment.name()))
                        cells[k] = section.produce(experiment);
                }
                return cells;
            });
        for (size_t k = 0; k < pass.sections.size(); ++k)
            for (size_t m = 0; m < members.size(); ++m)
                if (inRoster(*chosen[pass.sections[k]], members[m]))
                    rows[pass.sections[k]].push_back(
                        std::move(produced[m][k]));
    }

    for (size_t s = 0; s < chosen.size(); ++s) {
        banner(chosen[s]->title, passes[pass_of[s]].opts);
        printSection(*chosen[s], rows[s], opts.csv);
    }
    for (const Pass &pass : passes)
        printTiming(pass.timing);
    reportRun(tool, opts);
    return 0;
}

} // namespace
} // namespace copra::bench

int
main(int argc, char **argv)
{
    return copra::bench::paperMain(argc, argv, COPRA_PAPER_SECTION);
}
