#include "core/oracle.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace copra::core {

namespace {

/** Outcome bit position in a packed row. */
constexpr unsigned kOutcomeBit = 31;

/** Extract candidate @p i's 3-valued state from a packed row. */
inline unsigned
stateBits(uint32_t row, unsigned i)
{
    return (row >> (2 * i)) & 0x3u;
}

/**
 * Predict with a 2-bit counter, then train it on @p taken, as Counter2
 * does. Returns 1 when the prediction was correct.
 */
inline unsigned
train(uint8_t &counter, bool taken)
{
    bool predicted = counter >= 2;
    if (taken) {
        if (counter < 3)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
    return predicted == taken ? 1u : 0u;
}

} // namespace

SelectiveOracle::SelectiveOracle(const trace::Trace &trace,
                                 const OracleConfig &config)
    : config_(config)
{
    fatalIf(config.candidatePool == 0 || config.candidatePool > 15,
            "oracle candidate pool must be in 1..15 (packing limit)");
    fatalIf(config.maxSelect == 0 || config.maxSelect > 3,
            "oracle maxSelect must be in 1..3");
    fatalIf(config.historyDepth == 0 || config.historyDepth > 64,
            "oracle history depth must be in 1..64");

    {
        // The mined tag tables are done with once the pools are chosen;
        // free them before selection.
        CandidateMiner miner(config.historyDepth, config.perBranchTagCap);
        miner.mine(trace, config.mineConditionals);
        record(trace, miner);
    }
    select();
}

void
SelectiveOracle::record(const trace::Trace &trace,
                        const CandidateMiner &miner)
{
    const trace::SoABlocks &soa = trace.soa();
    const uint32_t *static_index = soa.staticIndex();
    const uint8_t *kind = soa.kind();
    constexpr auto conditional =
        static_cast<uint8_t>(trace::BranchKind::Conditional);
    data_.resize(soa.staticCount());

    // Each branch's rows sit contiguously in rows_: count them first.
    for (size_t r = 0; r < soa.size(); ++r)
        if (kind[r] == conditional)
            ++data_[static_index[r]].rowCount;

    size_t offset = 0;
    for (size_t b = 0; b < data_.size(); ++b) {
        BranchData &data = data_[b];
        data.firstRow = offset;
        offset += data.rowCount;
        if (data.rowCount == 0)
            continue;
        data.rowCount = 0; // refilled below
        data.selection.pc = soa.staticPcs()[b];
        // Over-fetch so a method filter still fills the pool.
        for (const ScoredCandidate &cand : miner.topCandidates(
                 data.selection.pc, 2 * config_.candidatePool)) {
            bool is_occurrence = cand.tag.method() == TagMethod::Occurrence;
            if (config_.tagFilter ==
                    OracleConfig::TagFilter::OccurrenceOnly &&
                !is_occurrence)
                continue;
            if (config_.tagFilter == OracleConfig::TagFilter::BackwardOnly &&
                is_occurrence)
                continue;
            data.candidates.push_back(cand.tag);
            if (data.candidates.size() >= config_.candidatePool)
                break;
        }
        data.matcher = TagMatcher(data.candidates);
    }
    rows_.resize(offset);

    HistoryWindow window(config_.historyDepth);
    std::vector<TagState> collected;
    for (size_t r = 0; r < soa.size(); ++r) {
        trace::BranchRecord rec = soa.recordAt(r);
        if (!rec.isConditional()) {
            window.push(rec);
            continue;
        }

        BranchData &data = data_[static_index[r]];
        ++data.selection.execs;
        uint32_t row = 0;
        if (rec.taken) {
            ++data.selection.taken;
            row = 1u << kOutcomeBit;
        }
        if (data.matcher.size() != 0) {
            window.collect(collected);
            row |= data.matcher.states(collected);
        }
        rows_[data.firstRow + data.rowCount++] = row;

        window.push(rec);
    }
}

uint64_t
SelectiveOracle::replayScore(std::span<const uint32_t> rows,
                             const std::vector<unsigned> &subset)
{
    panicIf(subset.size() > 8, "replayScore subset too large");
    uint32_t table_size = pow3(static_cast<unsigned>(subset.size()));
    // 2-bit counters initialized weakly-not-taken, matching Counter2.
    std::array<uint8_t, pow3(8)> counters;
    std::fill(counters.begin(), counters.begin() + table_size, 1);

    uint64_t correct = 0;
    for (uint32_t row : rows) {
        uint32_t pattern = 0;
        uint32_t radix = 1;
        for (unsigned idx : subset) {
            pattern += stateBits(row, idx) * radix;
            radix *= 3;
        }
        bool taken = (row >> kOutcomeBit) & 1u;
        correct += train(counters[pattern], taken);
    }
    return correct;
}

void
SelectiveOracle::selectGreedy(BranchData &data,
                              std::span<const uint32_t> rows) const
{
    BranchSelection &out = data.selection;
    std::vector<unsigned> chosen;
    uint64_t last_score = replayScore(rows, chosen);

    // Every trial set is the chosen prefix plus one candidate c, so its
    // pattern is the prefix's radix-3 pattern (kept per row) plus c's
    // state times 3^|chosen|. One sweep over the rows trains one fresh
    // counter table per remaining candidate, which scores all of them
    // exactly as separate replayScore() calls would.
    std::vector<uint8_t> prefix(rows.size(), 0);
    uint32_t radix = 1;
    for (unsigned size = 1; size <= config_.maxSelect; ++size) {
        std::array<unsigned, TagMatcher::kMaxTags> live;
        unsigned live_count = 0;
        for (unsigned c = 0; c < data.candidates.size(); ++c)
            if (std::find(chosen.begin(), chosen.end(), c) == chosen.end())
                live[live_count++] = c;

        std::array<std::array<uint8_t, pow3(3)>, TagMatcher::kMaxTags>
            counters;
        std::array<uint64_t, TagMatcher::kMaxTags> score{};
        for (unsigned l = 0; l < live_count; ++l)
            std::fill(counters[l].begin(), counters[l].begin() + 3 * radix,
                      1);
        for (size_t r = 0; r < rows.size(); ++r) {
            uint32_t row = rows[r];
            bool taken = (row >> kOutcomeBit) & 1u;
            for (unsigned l = 0; l < live_count; ++l) {
                uint32_t pattern =
                    prefix[r] + stateBits(row, live[l]) * radix;
                score[l] += train(counters[l][pattern], taken);
            }
        }

        // First best in candidate order wins ties.
        unsigned best = UINT32_MAX;
        for (unsigned l = 0; l < live_count; ++l)
            if (best == UINT32_MAX || score[l] > score[best])
                best = l;
        if (best != UINT32_MAX) {
            unsigned picked = live[best];
            chosen.push_back(picked);
            last_score = score[best];
            for (size_t r = 0; r < rows.size(); ++r)
                prefix[r] = static_cast<uint8_t>(
                    prefix[r] + stateBits(rows[r], picked) * radix);
            radix *= 3;
        }
        // When candidates run out, larger sizes inherit the best smaller
        // set (there is nothing more to include in the history).
        out.correct[size - 1] = last_score;
        out.chosen[size - 1].clear();
        for (unsigned idx : chosen)
            out.chosen[size - 1].push_back(data.candidates[idx]);
    }
}

void
SelectiveOracle::selectExhaustive(BranchData &data,
                                  std::span<const uint32_t> rows) const
{
    BranchSelection &out = data.selection;
    unsigned n = static_cast<unsigned>(data.candidates.size());
    uint64_t empty_score = replayScore(rows, {});

    for (unsigned size = 1; size <= config_.maxSelect; ++size) {
        uint64_t best_score = 0;
        std::vector<unsigned> best_set;
        bool any = false;

        // Enumerate all subsets of exactly min(size, n) candidates.
        unsigned take = std::min(size, n);
        if (take == 0) {
            out.correct[size - 1] = empty_score;
            out.chosen[size - 1].clear();
            continue;
        }
        std::vector<unsigned> idx(take);
        for (unsigned i = 0; i < take; ++i)
            idx[i] = i;
        while (true) {
            uint64_t score = replayScore(rows, idx);
            if (!any || score > best_score) {
                any = true;
                best_score = score;
                best_set = idx;
            }
            // Next combination.
            int pos = static_cast<int>(take) - 1;
            while (pos >= 0 && idx[static_cast<unsigned>(pos)] ==
                   n - take + static_cast<unsigned>(pos))
                --pos;
            if (pos < 0)
                break;
            ++idx[static_cast<unsigned>(pos)];
            for (unsigned i = static_cast<unsigned>(pos) + 1; i < take; ++i)
                idx[i] = idx[i - 1] + 1;
        }

        out.correct[size - 1] = best_score;
        out.chosen[size - 1].clear();
        for (unsigned i : best_set)
            out.chosen[size - 1].push_back(data.candidates[i]);
    }
}

void
SelectiveOracle::select()
{
    // Selection replays candidate subsets per static branch — the
    // hottest analysis kernel. Branches are independent (each task
    // reads its own immutable rows and writes only its own
    // BranchSelection), so partition them across the pool. The results
    // map is filled afterwards in static-index order.
    std::vector<BranchData *> work;
    for (BranchData &data : data_)
        if (data.rowCount != 0)
            work.push_back(&data);

    parallelFor(globalPool(), work.size(), [&](size_t i) {
        BranchData &data = *work[i];
        std::span<const uint32_t> rows(rows_.data() + data.firstRow,
                                       data.rowCount);
        if (config_.exhaustive)
            selectExhaustive(data, rows);
        else
            selectGreedy(data, rows);
    });

    branches_.reserve(work.size());
    for (BranchData *data : work)
        branches_.emplace(data->selection.pc, std::move(data->selection));
    data_ = {};
    rows_ = {};
}

const BranchSelection *
SelectiveOracle::branch(uint64_t pc) const
{
    auto it = branches_.find(pc);
    return it == branches_.end() ? nullptr : &it->second;
}

double
SelectiveOracle::accuracyPercent(unsigned size) const
{
    panicIf(size == 0 || size > config_.maxSelect,
            "selective size out of range");
    uint64_t execs = 0;
    uint64_t correct = 0;
    // copra-lint: allow(unordered-iter) -- commutative integer aggregation; result is order-independent
    for (const auto &[pc, sel] : branches_) {
        execs += sel.execs;
        correct += sel.correct[size - 1];
    }
    if (execs == 0)
        return 0.0;
    return 100.0 * static_cast<double>(correct)
        / static_cast<double>(execs);
}

sim::Ledger
SelectiveOracle::toLedger(unsigned size) const
{
    panicIf(size == 0 || size > config_.maxSelect,
            "selective size out of range");
    sim::Ledger ledger;
    // copra-lint: allow(unordered-iter) -- per-key transform into a keyed container; no cross-key order dependence
    for (const auto &[pc, sel] : branches_)
        ledger.setTally(pc, sel.execs, sel.correct[size - 1], sel.taken);
    return ledger;
}

std::unordered_map<uint64_t, std::vector<Tag>>
SelectiveOracle::selectionMap(unsigned size) const
{
    panicIf(size == 0 || size > config_.maxSelect,
            "selective size out of range");
    std::unordered_map<uint64_t, std::vector<Tag>> out;
    // copra-lint: allow(unordered-iter) -- per-key transform into a keyed container; no cross-key order dependence
    for (const auto &[pc, sel] : branches_) {
        const auto &tags = sel.chosen[size - 1];
        if (!tags.empty())
            out.emplace(pc, tags);
    }
    return out;
}

} // namespace copra::core
