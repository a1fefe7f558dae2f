#include "core/candidates.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hpp"

namespace copra::core {

namespace {

double
entropyOf(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

} // namespace

size_t
ContingencyTable::probe(uint64_t packed) const noexcept
{
    size_t mask = slots_.size() - 1;
    auto bits = static_cast<unsigned>(std::countr_zero(slots_.size()));
    size_t i = tagSlot(packed, bits);
    while (slots_[i].packed != packed && slots_[i].packed != kEmpty)
        i = (i + 1) & mask;
    return i;
}

Contingency *
ContingencyTable::findOrInsert(uint64_t packed, size_t cap)
{
    // Grow first so the load stays at or below 0.75 after an insert.
    if (4 * (size_ + 1) > 3 * slots_.size())
        grow();
    Slot &slot = slots_[probe(packed)];
    if (slot.packed == packed)
        return &slot.counts;
    if (size_ >= cap)
        return nullptr;
    slot.packed = packed;
    ++size_;
    return &slot.counts;
}

void
ContingencyTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(),
                  Slot{kEmpty, Contingency{}});
    for (const Slot &slot : old)
        if (slot.packed != kEmpty)
            slots_[probe(slot.packed)] = slot;
}

CandidateMiner::CandidateMiner(unsigned depth, size_t per_branch_cap)
    : depth_(depth), perBranchCap_(per_branch_cap)
{
    panicIf(per_branch_cap == 0, "candidate cap must be positive");
}

void
CandidateMiner::mine(const trace::Trace &trace, uint64_t max_conditionals)
{
    panicIf(mined_, "CandidateMiner::mine called twice");
    mined_ = true;

    const trace::SoABlocks &soa = trace.soa();
    const uint32_t *static_index = soa.staticIndex();
    table_.resize(soa.staticCount());
    byPc_.reserve(soa.staticCount());
    for (uint32_t i = 0; i < soa.staticCount(); ++i)
        byPc_.emplace_back(soa.staticPcs()[i], i);
    std::sort(byPc_.begin(), byPc_.end());

    HistoryWindow window(depth_);
    std::vector<TagState> collected;
    uint64_t seen = 0;

    for (size_t r = 0; r < soa.size(); ++r) {
        trace::BranchRecord rec = soa.recordAt(r);
        if (!rec.isConditional()) {
            window.push(rec);
            continue;
        }
        if (max_conditionals != 0 && seen >= max_conditionals)
            break;
        ++seen;

        window.collect(collected);
        BranchCandidates &bc = table_[static_index[r]];
        if (rec.taken)
            ++bc.execsTaken;
        else
            ++bc.execsNotTaken;
        unsigned outcome = rec.taken ? 1 : 0;
        for (const TagState &ts : collected) {
            if (ts.tag.packed == ContingencyTable::kEmpty)
                continue;
            Contingency *counts =
                bc.tags.findOrInsert(ts.tag.packed, perBranchCap_);
            if (counts == nullptr)
                bc.capped = true;
            else
                ++counts->present[ts.taken ? 1 : 0][outcome];
        }
        window.push(rec);
    }
}

double
CandidateMiner::informationGain(const BranchCandidates &branch,
                                const Contingency &tag)
{
    double total = static_cast<double>(branch.execs());
    if (total == 0.0)
        return 0.0;

    double base = entropyOf(static_cast<double>(branch.execsTaken) / total);

    // Three states: not-taken present, taken present, not-in-path.
    double cond = 0.0;
    uint64_t nip_taken = branch.execsTaken;
    uint64_t nip_not = branch.execsNotTaken;
    for (int dir = 0; dir < 2; ++dir) {
        uint64_t with_taken = tag.present[dir][1];
        uint64_t with_not = tag.present[dir][0];
        nip_taken -= with_taken;
        nip_not -= with_not;
        uint64_t n = with_taken + with_not;
        if (n > 0) {
            cond += (n / total) *
                entropyOf(static_cast<double>(with_taken) / n);
        }
    }
    uint64_t n_nip = nip_taken + nip_not;
    if (n_nip > 0) {
        cond += (n_nip / total) *
            entropyOf(static_cast<double>(nip_taken) / n_nip);
    }
    return base - cond;
}

std::vector<ScoredCandidate>
CandidateMiner::topCandidates(uint64_t pc, unsigned k) const
{
    std::vector<ScoredCandidate> scored;
    const BranchCandidates *bc = branch(pc);
    if (bc == nullptr)
        return scored;

    scored.reserve(bc->tags.size());
    bc->tags.forEach([&](Tag tag, const Contingency &contingency) {
        scored.push_back({tag, informationGain(*bc, contingency)});
    });

    // Deterministic order: gain descending, then packed tag ascending so
    // equal-gain candidates do not depend on the table's slot order.
    // Packed tags are unique, so the order is total and the first k
    // elements do not depend on how the rest are arranged.
    auto better = [](const ScoredCandidate &a, const ScoredCandidate &b) {
        if (a.gain != b.gain)
            return a.gain > b.gain;
        return a.tag.packed < b.tag.packed;
    };
    size_t keep = std::min<size_t>(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      better);
    scored.resize(keep);
    return scored;
}

const BranchCandidates *
CandidateMiner::branch(uint64_t pc) const
{
    auto it = std::lower_bound(
        byPc_.begin(), byPc_.end(), std::pair<uint64_t, uint32_t>{pc, 0});
    if (it == byPc_.end() || it->first != pc)
        return nullptr;
    const BranchCandidates &bc = table_[it->second];
    return bc.execs() == 0 ? nullptr : &bc;
}

} // namespace copra::core
