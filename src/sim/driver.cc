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
        uint8_t *correct_scratch, BranchTally *tallies) noexcept
{
    // Ledger path: per-branch tallies are addressed by the trace's
    // dense static index (built once with the SoA image), so each
    // branch costs three plain adds and no hashing. Folding is
    // additive, so the result is identical to calling Ledger::record
    // per branch.
    LoopTotals totals;
    size_t pos = 0;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (; pos < seg.begin; ++pos)
            pred.observe(soa.recordAt(pos));
        predictor::SoaBatch batch{soa.pc() + seg.begin,
                                  soa.target() + seg.begin,
                                  soa.taken() + seg.begin, seg.count};
        if (tallies) {
            totals.correct +=
                pred.predictUpdateSoa(batch, correct_scratch);
            const uint32_t *sidx = soa.staticIndex() + seg.begin;
            for (size_t k = 0; k < seg.count; ++k) {
                BranchTally &t = tallies[sidx[k]];
                t.execs += 1;
                t.taken += batch.taken[k];
                t.correct += correct_scratch[k];
            }
        } else {
            totals.correct += pred.predictUpdateSoa(batch, nullptr);
        }
        totals.branches += seg.count;
        pos = seg.begin + seg.count;
    }
    for (; pos < soa.size(); ++pos)
        pred.observe(soa.recordAt(pos));
    return totals;
}

size_t
maxSegment(const trace::SoABlocks &soa)
{
    size_t n = 0;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments())
        n = std::max(n, seg.count);
    return n;
}

RunResult
run(const trace::Trace &trace, predictor::Predictor &pred, Ledger *ledger)
{
    RunResult result;
    result.predictorName = pred.name();

    // Feed maximal runs of consecutive conditional branches through the
    // SoA batch entry point: predictors with fused batch loops
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
    std::vector<uint8_t> correct(ledger ? maxSegment(soa) : 0);

    LoopTotals totals = runLoop(soa, pred, correct.data(),
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
       std::vector<Ledger> *ledgers, ThreadPool *pool)
{
    for (auto *p : preds)
        panicIf(p == nullptr, "runAll: null predictor");
    if (ledgers) {
        ledgers->clear();
        ledgers->resize(preds.size());
    }

    // One full pass per predictor over the shared SoA image. Each
    // predictor owns its adaptive state and writes only its own result
    // slot and ledger; the trace is shared read-only. Sharding by
    // predictor index is therefore race-free, and because run() itself
    // is deterministic the outcome is bit-identical for every pool
    // size, a pool of one included.
    std::vector<RunResult> results(preds.size());
    parallelFor(pool ? *pool : globalPool(), preds.size(), [&](size_t i) {
        results[i] = run(trace, *preds[i],
                         ledgers ? &(*ledgers)[i] : nullptr);
    });
    return results;
}

} // namespace copra::sim
