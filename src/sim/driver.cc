#include "sim/driver.hpp"

#include <algorithm>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "trace/trace_soa.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace copra::sim {

LoopTotals
runLoop(const trace::SoABlocks &soa, predictor::Predictor &pred,
        uint8_t *correct_scratch,
        uint64_t *packed, BranchTally *tallies) noexcept
{
    // Ledger path: accumulate per-branch tallies addressed by the
    // trace's dense static index (built once with the SoA image — no
    // hashing per branch). The hot loop does ONE u64 add per branch
    // into a packed execs/taken/correct word (21 bits each, flushed to
    // the wide tallies well before any field can saturate), keeping the
    // randomly-addressed array at 8 bytes per static branch — L1-sized
    // for every benchmark. Folding is additive, so the result is
    // identical to calling Ledger::record per branch.
    constexpr uint64_t kFieldMask = (uint64_t(1) << 21) - 1;
    constexpr uint64_t kFlushEvery = uint64_t(1) << 20;
    const size_t staticCount = packed ? soa.staticCount() : 0;
    uint64_t since_flush = 0;
    auto flush = [&]() noexcept {
        for (size_t id = 0; id < staticCount; ++id) {
            uint64_t p = packed[id];
            if (p == 0)
                continue;
            packed[id] = 0;
            BranchTally &t = tallies[id];
            t.execs += p & kFieldMask;
            t.taken += (p >> 21) & kFieldMask;
            t.correct += (p >> 42) & kFieldMask;
        }
        since_flush = 0;
    };

    LoopTotals totals;
    size_t pos = 0;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (; pos < seg.begin; ++pos)
            pred.observe(soa.recordAt(pos));
        predictor::SoaBatch batch{soa.pc() + seg.begin,
                                  soa.target() + seg.begin,
                                  soa.taken() + seg.begin, seg.count};
        if (packed) {
            totals.correct +=
                pred.predictUpdateSoa(batch, correct_scratch);
            const uint32_t *sidx = soa.staticIndex() + seg.begin;
            const uint8_t *taken = batch.taken;
            // Accumulate in flush-bounded chunks: a single segment can
            // exceed 2^21 branches (long ingested foreign traces), and
            // a segment-granular flush would let one pc's 21-bit execs
            // field wrap and carry into the taken field.
            size_t k = 0;
            while (k < seg.count) {
                size_t chunk = static_cast<size_t>(std::min<uint64_t>(
                    seg.count - k, kFlushEvery - since_flush));
                for (size_t end = k + chunk; k < end; ++k) {
                    packed[sidx[k]] += 1 | (uint64_t(taken[k]) << 21) |
                        (uint64_t(correct_scratch[k]) << 42);
                }
                since_flush += chunk;
                if (since_flush >= kFlushEvery)
                    flush();
            }
        } else {
            totals.correct += pred.predictUpdateSoa(batch, nullptr);
        }
        totals.branches += seg.count;
        pos = seg.begin + seg.count;
    }
    for (; pos < soa.size(); ++pos)
        pred.observe(soa.recordAt(pos));
    if (packed)
        flush();
    return totals;
}

RunResult
run(const trace::Trace &trace, predictor::Predictor &pred, Ledger *ledger)
{
    RunResult result;
    result.predictorName = pred.name();

    // Feed maximal runs of consecutive conditional branches through the
    // SoA batch entry point: predictors with specialized kernels
    // (TwoLevel, Bimodal) consume the contiguous pc/taken columns
    // directly, and everything else falls back to the default, which
    // builds each record on the stack and reproduces the classic
    // predict/update call sequence exactly. Non-conditional records
    // between runs are delivered to observe() in trace order.
    //
    // Every buffer the loop touches is allocated here, before runLoop:
    // the loop itself is the COPRA_HOT region and performs no heap
    // allocation of its own (`copra_check --hot-gates` enforces this).
    const trace::SoABlocks &soa = trace.soa();
    std::vector<BranchTally> tallies(ledger ? soa.staticCount() : 0);
    std::vector<uint64_t> packed(tallies.size(), 0);
    size_t maxSegment = 0;
    if (ledger)
        for (const trace::SoABlocks::Segment &seg :
             soa.conditionalSegments())
            maxSegment = std::max(maxSegment, seg.count);
    std::vector<uint8_t> correct(maxSegment);

    LoopTotals totals =
        runLoop(soa, pred, correct.data(),
                ledger ? packed.data() : nullptr,
                ledger ? tallies.data() : nullptr);
    result.correct = totals.correct;
    result.dynamicBranches = totals.branches;

    if (ledger) {
        std::span<const uint64_t> pcs = soa.staticPcs();
        for (size_t id = 0; id < tallies.size(); ++id)
            if (tallies[id].execs != 0)
                ledger->addTally(pcs[id], tallies[id]);
    }
    obs::count(obs::ids().simRunBranches, result.dynamicBranches);
    obs::count(obs::ids().simRunMispredicts,
               result.dynamicBranches - result.correct);
    return result;
}

std::vector<RunResult>
runAll(const trace::Trace &trace,
       const std::vector<predictor::Predictor *> &preds,
       std::vector<Ledger> *ledgers)
{
    for (auto *p : preds)
        panicIf(p == nullptr, "runAll: null predictor");
    if (ledgers) {
        ledgers->clear();
        ledgers->resize(preds.size());
    }

    // One full pass per predictor over the shared SoA image. Predictors
    // own all their adaptive state, so per-predictor passes produce
    // exactly the branch-interleaved results — every ledger covers the
    // same dynamic branches — while each pass streams the trace's
    // columns.
    std::vector<RunResult> results(preds.size());
    for (size_t i = 0; i < preds.size(); ++i)
        results[i] = run(trace, *preds[i],
                         ledgers ? &(*ledgers)[i] : nullptr);
    return results;
}

std::vector<RunResult>
runAllParallel(const trace::Trace &trace,
               const std::vector<predictor::Predictor *> &preds,
               std::vector<Ledger> *ledgers, ThreadPool *pool)
{
    for (auto *p : preds)
        panicIf(p == nullptr, "runAllParallel: null predictor");
    if (ledgers) {
        ledgers->clear();
        ledgers->resize(preds.size());
    }

    // Each predictor owns its adaptive state and writes only its own
    // result slot and ledger; the trace is shared read-only. Sharding by
    // predictor index is therefore race-free, and because run() itself
    // is deterministic the outcome is bit-identical to the serial path
    // for every thread count.
    std::vector<RunResult> results(preds.size());
    parallelFor(pool ? *pool : globalPool(), preds.size(), [&](size_t i) {
        results[i] = run(trace, *preds[i],
                         ledgers ? &(*ledgers)[i] : nullptr);
    });
    return results;
}

} // namespace copra::sim
