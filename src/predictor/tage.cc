#include "predictor/tage.hpp"

#include <cmath>

#include "obs/instruments.hpp"
#include "util/logging.hpp"

namespace copra::predictor {

unsigned
TageConfig::historyLength(unsigned t) const
{
    if (numTables <= 1 || minHistory >= maxHistory)
        return minHistory;
    // Geometric series L(t) = min * (max/min)^(t / (N-1)), rounded;
    // monotonicity is enforced so two tables never share a length.
    double ratio = static_cast<double>(maxHistory) / minHistory;
    double exact =
        minHistory * std::pow(ratio, static_cast<double>(t) / (numTables - 1));
    auto len = static_cast<unsigned>(std::lround(exact));
    unsigned floor = minHistory + t;
    return len < floor ? floor : len;
}

Tage::Tage(const TageConfig &config) : config_(config)
{
    fatalIf(config_.baseBits == 0 || config_.baseBits > 24,
            "TAGE base bits must be in 1..24");
    fatalIf(config_.tableBits == 0 || config_.tableBits > 24,
            "TAGE table bits must be in 1..24");
    fatalIf(config_.tagBits == 0 || config_.tagBits > 16,
            "TAGE tag bits must be in 1..16");
    fatalIf(config_.counterBits < 2 || config_.counterBits > 8,
            "TAGE counter bits must be in 2..8");
    fatalIf(config_.usefulBits == 0 || config_.usefulBits > 8,
            "TAGE useful bits must be in 1..8");
    fatalIf(config_.numTables == 0 || config_.numTables > kMaxTables,
            "TAGE needs 1..8 tagged tables");
    fatalIf(config_.minHistory == 0, "TAGE min history must be > 0");
    fatalIf(config_.maxHistory < config_.minHistory,
            "TAGE max history must be >= min history");
    fatalIf(config_.maxHistory > FoldedHistory::kMaxBits,
            "TAGE max history exceeds FoldedHistory::kMaxBits");

    base_.assign(size_t(1) << config_.baseBits, 1); // weakly not-taken
    tables_.assign(size_t(config_.numTables) << config_.tableBits, Entry{});
    lengths_.resize(config_.numTables);
    hashes_.resize(config_.numTables);
    for (unsigned t = 0; t < config_.numTables; ++t) {
        lengths_[t] = config_.historyLength(t);
        TableHash &h = hashes_[t];
        h.index = history_.addChannel(lengths_[t], config_.tableBits);
        h.tag = history_.addChannel(lengths_[t], config_.tagBits);
        if (config_.tagBits > 1)
            h.tagAlt =
                history_.addChannel(lengths_[t], config_.tagBits - 1);
    }
}

Tage::~Tage() = default;

size_t
Tage::indexOf(unsigned t, uint64_t pc) const noexcept
{
    uint64_t word = pc >> 2;
    uint64_t folded = history_.channel(hashes_[t].index);
    // Skew the pc contribution per table so tables disagree about which
    // static branches collide.
    uint64_t idx = folded ^ word ^ (word >> (t + 1));
    return idx & ((size_t(1) << config_.tableBits) - 1);
}

uint16_t
Tage::tagOf(unsigned t, uint64_t pc) const noexcept
{
    uint64_t word = pc >> 2;
    uint64_t f1 = history_.channel(hashes_[t].tag);
    // The second, shifted fold at width-1 breaks the symmetry that a
    // single fold shares with the index hash (classic TAGE trick).
    uint64_t f2 = config_.tagBits > 1
        ? history_.channel(hashes_[t].tagAlt) << 1
        : 0;
    uint64_t tag = word ^ f1 ^ f2;
    return static_cast<uint16_t>(tag &
                                 ((uint64_t(1) << config_.tagBits) - 1));
}

bool
Tage::counterTaken(uint8_t ctr, unsigned bits) const noexcept
{
    return ctr >= (uint8_t(1) << (bits - 1));
}

void
Tage::bumpCounter(uint8_t &ctr, unsigned bits, bool up) noexcept
{
    uint8_t max = static_cast<uint8_t>((1u << bits) - 1);
    if (up && ctr < max)
        ++ctr;
    else if (!up && ctr > 0)
        --ctr;
}

void
Tage::lookup(uint64_t pc, Lookup &out) const noexcept
{
    out.pc = pc;
    out.valid = true;
    out.provider = -1;
    size_t base_idx = (pc >> 2) & ((size_t(1) << config_.baseBits) - 1);
    bool base_pred = counterTaken(base_[base_idx], 2);
    out.prediction = base_pred;
    out.altPrediction = base_pred;
    for (unsigned t = 0; t < config_.numTables; ++t) {
        out.index[t] = static_cast<uint32_t>(indexOf(t, pc));
        out.tag[t] = tagOf(t, pc);
    }
    for (int t = static_cast<int>(config_.numTables) - 1; t >= 0; --t) {
        const Entry &e = table(t)[out.index[t]];
        if (e.tag != out.tag[t])
            continue;
        bool pred = counterTaken(e.ctr, config_.counterBits);
        if (out.provider < 0) {
            out.provider = t;
            out.prediction = pred;
            out.altPrediction = base_pred; // until a lower match appears
        } else {
            out.altPrediction = pred;
            break; // only the next-longest match matters
        }
    }
}

bool
Tage::predict(const trace::BranchRecord &br) noexcept
{
    lookup(br.pc, latch_);
    if (latch_.provider >= 0)
        ++stats_.providerTagged;
    else
        ++stats_.providerBase;
    return latch_.prediction;
}

void
Tage::allocateEntry(Entry &slot, uint16_t tag, bool taken) noexcept
{
    slot.tag = tag;
    // Weakly toward the observed outcome: the weakest taken value is
    // 2^(bits-1), the weakest not-taken value is one below it.
    uint8_t weak_taken = uint8_t(1) << (config_.counterBits - 1);
    slot.ctr = taken ? weak_taken : uint8_t(weak_taken - 1);
    slot.useful = 0;
}

void
Tage::update(const trace::BranchRecord &br, bool taken) noexcept
{
    // predict() latched the lookup from the same pre-update state;
    // recompute only when update() arrives without its predict() (a
    // different pc, or a latch already consumed or invalidated).
    if (!latch_.valid || latch_.pc != br.pc)
        lookup(br.pc, latch_);
    const Lookup &l = latch_;
    bool mispredict = l.prediction != taken;

    if (l.provider >= 0) {
        Entry &e = table(l.provider)[l.index[l.provider]];
        bumpCounter(e.ctr, config_.counterBits, taken);
        // The useful counter tracks whether the provider beats its
        // alternate — only meaningful when they disagree.
        if (l.prediction != l.altPrediction) {
            bumpCounter(e.useful, config_.usefulBits,
                        l.prediction == taken);
        }
    } else {
        size_t base_idx =
            (br.pc >> 2) & ((size_t(1) << config_.baseBits) - 1);
        bumpCounter(base_[base_idx], 2, taken);
    }

    // Allocate into a longer-history table on a final mispredict.
    if (mispredict &&
        l.provider < static_cast<int>(config_.numTables) - 1) {
        bool allocated = false;
        for (unsigned t = l.provider + 1; t < config_.numTables; ++t) {
            Entry &cand = table(t)[l.index[t]];
            if (cand.useful == 0) {
                allocateEntry(cand, l.tag[t], taken);
                ++stats_.allocations;
                obs::count(obs::ids().tageAllocations);
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            // All candidates are protected: decay them so a future
            // mispredict can get in (full TAGE decrements u here too).
            for (unsigned t = l.provider + 1; t < config_.numTables; ++t) {
                Entry &cand = table(t)[l.index[t]];
                if (cand.useful > 0)
                    --cand.useful;
            }
            ++stats_.allocFailures;
        }
    }
    latch_.valid = false;

    history_.push(taken);

    ++updates_;
    if (config_.agingPeriod != 0 && updates_ % config_.agingPeriod == 0) {
        for (Entry &e : tables_)
            e.useful >>= 1;
        ++stats_.agingEvents;
    }
}

void
Tage::reset()
{
    base_.assign(base_.size(), 1);
    tables_.assign(tables_.size(), Entry{});
    history_.clear();
    updates_ = 0;
    stats_ = TageStats{};
    latch_.valid = false;
}

std::string
Tage::name() const
{
    return config_.label;
}

unsigned
Tage::maxUseful() const
{
    unsigned out = 0;
    for (const Entry &e : tables_)
        if (e.useful > out)
            out = e.useful;
    return out;
}

uint64_t
Tage::usefulSum() const
{
    uint64_t out = 0;
    for (const Entry &e : tables_)
        out += e.useful;
    return out;
}

} // namespace copra::predictor
