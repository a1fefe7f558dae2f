/**
 * @file
 * Ablation — predictor simulation throughput (google-benchmark): how
 * fast each predictor processes dynamic branches. Not a paper artifact;
 * it documents the cost of the instruments (table predictors are O(1)
 * per branch; interference-free and selective machinery pay hash-map
 * and window-collection costs).
 */

#include <benchmark/benchmark.h>

#include "core/selective.hpp"
#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "workload/profiles.hpp"

namespace {

const copra::trace::Trace &
sharedTrace()
{
    static const copra::trace::Trace trace =
        copra::workload::makeBenchmarkTrace("gcc", 100000, 0);
    return trace;
}

void
BM_Predictor(benchmark::State &state, const std::string &spec)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        auto pred = copra::predictor::makePredictor(spec);
        auto result = copra::sim::run(trace, *pred);
        benchmark::DoNotOptimize(result.correct);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(trace.conditionalCount()));
}

/**
 * Reference scalar loop: two virtual calls per branch, the driver's
 * pre-batching behaviour. The delta against BM_Predictor (which goes
 * through sim::run and therefore TwoLevel::predictUpdateSoa) is the
 * devirtualization win.
 */
void
BM_PredictorScalarVirtual(benchmark::State &state, const std::string &spec)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        auto pred = copra::predictor::makePredictor(spec);
        uint64_t correct = 0;
        for (const auto &rec : trace.records()) {
            if (!rec.isConditional()) {
                pred->observe(rec);
                continue;
            }
            bool prediction = pred->predict(rec);
            pred->update(rec, rec.taken);
            if (prediction == rec.taken)
                ++correct;
        }
        benchmark::DoNotOptimize(correct);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(trace.conditionalCount()));
}

void
BM_SelectivePredictor(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        copra::core::SelectivePredictor pred({}, 16);
        auto result = copra::sim::run(trace, pred);
        benchmark::DoNotOptimize(result.correct);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(trace.conditionalCount()));
}

} // namespace

BENCHMARK_CAPTURE(BM_Predictor, bimodal, std::string("bimodal"));
BENCHMARK_CAPTURE(BM_Predictor, gshare, std::string("gshare"));
BENCHMARK_CAPTURE(BM_Predictor, pas, std::string("pas"));
BENCHMARK_CAPTURE(BM_Predictor, path, std::string("path"));
BENCHMARK_CAPTURE(BM_Predictor, loop, std::string("loop"));
BENCHMARK_CAPTURE(BM_Predictor, block, std::string("block"));
BENCHMARK_CAPTURE(BM_Predictor, ifgshare, std::string("ifgshare"));
BENCHMARK_CAPTURE(BM_Predictor, ifpas, std::string("ifpas"));
BENCHMARK_CAPTURE(BM_Predictor, hybrid, std::string("hybrid"));
BENCHMARK_CAPTURE(BM_PredictorScalarVirtual, gshare_scalar,
                  std::string("gshare"));
BENCHMARK_CAPTURE(BM_PredictorScalarVirtual, pas_scalar,
                  std::string("pas"));
BENCHMARK(BM_SelectivePredictor);

BENCHMARK_MAIN();
