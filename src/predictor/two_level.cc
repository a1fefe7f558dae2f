#include "predictor/two_level.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace copra::predictor {

TwoLevelConfig
TwoLevelConfig::gshare(unsigned h)
{
    TwoLevelConfig c;
    c.scope = Scope::Global;
    c.index = Index::Xor;
    c.historyBits = h;
    c.phtBits = h;
    c.label = "gshare(h=" + std::to_string(h) + ")";
    return c;
}

TwoLevelConfig
TwoLevelConfig::gag(unsigned h)
{
    TwoLevelConfig c;
    c.scope = Scope::Global;
    c.index = Index::HistoryOnly;
    c.historyBits = h;
    c.phtBits = h;
    c.label = "GAg(h=" + std::to_string(h) + ")";
    return c;
}

TwoLevelConfig
TwoLevelConfig::gas(unsigned h, unsigned pc_select)
{
    TwoLevelConfig c;
    c.scope = Scope::Global;
    c.index = Index::Concat;
    c.historyBits = h;
    c.pcSelectBits = pc_select;
    c.phtBits = h + pc_select;
    c.label = "GAs(h=" + std::to_string(h) + ",s=" +
        std::to_string(pc_select) + ")";
    return c;
}

TwoLevelConfig
TwoLevelConfig::pas(unsigned h, unsigned bht_bits, unsigned pc_select)
{
    TwoLevelConfig c;
    c.scope = Scope::PerAddress;
    c.index = Index::Concat;
    c.historyBits = h;
    c.bhtBits = bht_bits;
    c.pcSelectBits = pc_select;
    c.phtBits = h + pc_select;
    c.label = "PAs(h=" + std::to_string(h) + ",bht=" +
        std::to_string(bht_bits) + ",s=" + std::to_string(pc_select) + ")";
    return c;
}

TwoLevelConfig
TwoLevelConfig::pag(unsigned h, unsigned bht_bits)
{
    TwoLevelConfig c;
    c.scope = Scope::PerAddress;
    c.index = Index::HistoryOnly;
    c.historyBits = h;
    c.bhtBits = bht_bits;
    c.phtBits = h;
    c.label = "PAg(h=" + std::to_string(h) + ",bht=" +
        std::to_string(bht_bits) + ")";
    return c;
}

TwoLevel::TwoLevel(const TwoLevelConfig &config)
    : config_(config)
{
    fatalIf(config.historyBits == 0 || config.historyBits > 32,
            "two-level history bits must be in 1..32");
    fatalIf(config.phtBits == 0 || config.phtBits > 28,
            "two-level PHT bits must be in 1..28");
    fatalIf(config.scope == TwoLevelConfig::Scope::PerAddress &&
            (config.bhtBits == 0 || config.bhtBits > 24),
            "two-level BHT bits must be in 1..24");
    fatalIf(config.counterBits == 0 || config.counterBits > 8,
            "two-level counter bits must be in 1..8");

    historyMask_ = (uint64_t(1) << config.historyBits) - 1;
    phtMask_ = (size_t(1) << config.phtBits) - 1;
    counterMax_ = static_cast<uint8_t>((1u << config.counterBits) - 1);
    // Weakly-not-taken: the largest value still predicting not-taken.
    counterInit_ = static_cast<uint8_t>((counterMax_ + 1) / 2 - 1);
    size_t n_hist = config.scope == TwoLevelConfig::Scope::Global
        ? 1 : (size_t(1) << config.bhtBits);
    histories_.assign(n_hist, 0);
    pht_.assign(size_t(1) << config.phtBits, counterInit_);
}

uint64_t &
TwoLevel::historyFor(uint64_t pc) noexcept
{
    if (config_.scope == TwoLevelConfig::Scope::Global)
        return histories_[0];
    size_t idx = (pc >> 2) & ((size_t(1) << config_.bhtBits) - 1);
    return histories_[idx];
}

uint64_t
TwoLevel::historyFor(uint64_t pc) const noexcept
{
    return const_cast<TwoLevel *>(this)->historyFor(pc);
}

size_t
TwoLevel::phtIndex(uint64_t pc) const noexcept
{
    uint64_t hist = historyFor(pc) & historyMask_;
    uint64_t pc_bits = pc >> 2;
    switch (config_.index) {
      case TwoLevelConfig::Index::HistoryOnly:
        return hist & phtMask_;
      case TwoLevelConfig::Index::Concat:
        {
            uint64_t select =
                pc_bits & ((uint64_t(1) << config_.pcSelectBits) - 1);
            return ((select << config_.historyBits) | hist) & phtMask_;
        }
      case TwoLevelConfig::Index::Xor:
        return (hist ^ pc_bits) & phtMask_;
    }
    return 0;
}

bool
TwoLevel::predict(const trace::BranchRecord &br) noexcept
{
    return pht_[phtIndex(br.pc)] > counterInit_;
}

void
TwoLevel::update(const trace::BranchRecord &br, bool taken) noexcept
{
    uint8_t &counter = pht_[phtIndex(br.pc)];
    if (taken) {
        if (counter < counterMax_)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
    uint64_t &hist = historyFor(br.pc);
    hist = ((hist << 1) | (taken ? 1 : 0)) & historyMask_;
}

uint64_t
TwoLevel::predictUpdateSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept
{
    const uint64_t select_mask =
        (uint64_t(1) << config_.pcSelectBits) - 1;
    const uint64_t bht_mask = (uint64_t(1) << config_.bhtBits) - 1;
    uint64_t n_correct = 0;
    // Predict branch j from counter pht_index, then train it.
    auto train = [&](size_t j, size_t pht_index) noexcept {
        uint8_t &counter = pht_[pht_index];
        bool prediction = counter > counterInit_;
        uint8_t t = batch.taken[j];
        if (t) {
            if (counter < counterMax_)
                ++counter;
        } else {
            if (counter > 0)
                --counter;
        }
        bool correct = prediction == (t != 0);
        n_correct += correct ? 1 : 0;
        if (correct_out)
            correct_out[j] = correct ? 1 : 0;
    };
    // One fused loop per scope and index flavour: hoisting both
    // switches out of the per-branch work is the whole win over the
    // scalar predict/update path.
    auto fused = [&](auto pht_index_of) noexcept {
        if (config_.scope == TwoLevelConfig::Scope::Global) {
            // The history lives in a local for the whole batch: the
            // counter stores are byte stores, which may alias
            // histories_, so going through the vector would reload it
            // every branch.
            uint64_t hist = histories_[0];
            for (size_t j = 0; j < batch.count; ++j) {
                train(j, pht_index_of(batch.pc[j] >> 2,
                                      hist & historyMask_));
                hist = ((hist << 1) | batch.taken[j]) & historyMask_;
            }
            histories_[0] = hist;
            return;
        }
        // Per-address histories serialize on the BHT row: the PHT
        // index needs the row's just-updated history.
        for (size_t j = 0; j < batch.count; ++j) {
            uint64_t pc_bits = batch.pc[j] >> 2;
            uint64_t &hist_reg = histories_[pc_bits & bht_mask];
            train(j, pht_index_of(pc_bits, hist_reg & historyMask_));
            hist_reg = ((hist_reg << 1) | batch.taken[j]) & historyMask_;
        }
    };
    switch (config_.index) {
      case TwoLevelConfig::Index::HistoryOnly:
        fused([&](uint64_t, uint64_t hist) noexcept {
            return hist & phtMask_;
        });
        break;
      case TwoLevelConfig::Index::Concat:
        fused([&](uint64_t pc_bits, uint64_t hist) noexcept {
            uint64_t select = pc_bits & select_mask;
            return ((select << config_.historyBits) | hist) & phtMask_;
        });
        break;
      case TwoLevelConfig::Index::Xor:
        fused([&](uint64_t pc_bits, uint64_t hist) noexcept {
            return (hist ^ pc_bits) & phtMask_;
        });
        break;
    }
    return n_correct;
}

void
TwoLevel::reset()
{
    std::fill(histories_.begin(), histories_.end(), 0);
    std::fill(pht_.begin(), pht_.end(), counterInit_);
}

std::string
TwoLevel::name() const
{
    return config_.label;
}

} // namespace copra::predictor
