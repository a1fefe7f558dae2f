#include "predictor/perceptron.hpp"

#include <cstdlib>

#include "obs/instruments.hpp"
#include "util/logging.hpp"

namespace copra::predictor {

Perceptron::Perceptron(const PerceptronConfig &config)
    : config_(config), theta_(config.initialTheta)
{
    fatalIf(config_.tableBits == 0 || config_.tableBits > 24,
            "perceptron table bits must be in 1..24");
    fatalIf(config_.numTables < 2 || config_.numTables > kMaxTables,
            "perceptron needs 2..16 tables (one is the bias table)");
    fatalIf(config_.segmentBits == 0 || config_.segmentBits > 32,
            "perceptron segment bits must be in 1..32");
    fatalIf(config_.historyBits() > FoldedHistory::kMaxBits,
            "perceptron history exceeds FoldedHistory::kMaxBits");
    fatalIf(config_.weightMin >= 0 || config_.weightMax <= 0,
            "perceptron weight range must straddle zero");
    fatalIf(config_.weightMin < -32768 || config_.weightMax > 32767,
            "perceptron weights must fit int16");
    fatalIf(config_.initialTheta < 1, "perceptron theta must be >= 1");
    fatalIf(config_.thetaCounterSat < 1,
            "perceptron theta counter saturation must be >= 1");

    weights_.assign(size_t(config_.numTables) << config_.tableBits, 0);
    // Table t sees the newest t*S history bits (see indexOf).
    channels_.assign(config_.numTables, 0);
    for (unsigned t = 1; t < config_.numTables; ++t)
        channels_[t] =
            history_.addChannel(t * config_.segmentBits, config_.tableBits);
}

Perceptron::~Perceptron() = default;

size_t
Perceptron::indexOf(unsigned t, uint64_t pc) const noexcept
{
    uint64_t word = pc >> 2;
    uint64_t idx;
    if (t == 0) {
        // Bias table: address only, no history.
        idx = word;
    } else {
        // Table t sees history segment [(t-1)*S, t*S): fold the newest
        // t*S bits and XOR away the fold of the newest (t-1)*S bits
        // would *not* isolate the segment (folding is not prefix-local),
        // so instead fold the full window seen so far at each depth —
        // the windows nest, giving each table a progressively deeper
        // view, O-GEHL style.
        uint64_t folded = history_.channel(channels_[t]);
        idx = word ^ (word >> t) ^ folded;
    }
    return idx & ((size_t(1) << config_.tableBits) - 1);
}

void
Perceptron::lookup(uint64_t pc, Lookup &out) const noexcept
{
    out.pc = pc;
    out.valid = true;
    int sum = 0;
    for (unsigned t = 0; t < config_.numTables; ++t) {
        out.index[t] = static_cast<uint32_t>(indexOf(t, pc));
        sum += table(t)[out.index[t]];
    }
    out.yout = sum;
}

bool
Perceptron::predict(const trace::BranchRecord &br) noexcept
{
    lookup(br.pc, latch_);
    return latch_.yout >= 0;
}

int
Perceptron::clampWeight(int weight, bool taken) const noexcept
{
    int next = weight + (taken ? 1 : -1);
    if (next > config_.weightMax)
        return config_.weightMax;
    if (next < config_.weightMin)
        return config_.weightMin;
    return next;
}

void
Perceptron::update(const trace::BranchRecord &br, bool taken) noexcept
{
    // predict() latched the indices and sum from the same pre-update
    // state; recompute only when update() arrives without its
    // predict() (a different pc, or a latch already consumed or
    // invalidated).
    if (!latch_.valid || latch_.pc != br.pc)
        lookup(br.pc, latch_);
    const int yout = latch_.yout;
    bool predicted = yout >= 0;
    bool mispredict = predicted != taken;
    bool weak = std::abs(yout) <= theta_;

    if (mispredict || weak) {
        for (unsigned t = 0; t < config_.numTables; ++t) {
            int16_t &w = table(t)[latch_.index[t]];
            w = static_cast<int16_t>(clampWeight(w, taken));
        }
        ++stats_.trainEvents;
    }

    // Seznec's threshold fitting: mispredicts say theta is too low
    // (training stops too early), correct-but-weak says it is too high.
    if (mispredict) {
        if (++thetaCtr_ >= config_.thetaCounterSat) {
            ++theta_;
            thetaCtr_ = 0;
            ++stats_.thresholdAdapts;
            obs::count(obs::ids().perceptronThresholdAdapts);
        }
    } else if (weak) {
        if (--thetaCtr_ <= -config_.thetaCounterSat) {
            if (theta_ > 1)
                --theta_;
            thetaCtr_ = 0;
            ++stats_.thresholdAdapts;
            obs::count(obs::ids().perceptronThresholdAdapts);
        }
    }

    latch_.valid = false;
    history_.push(taken);
}

void
Perceptron::reset()
{
    weights_.assign(weights_.size(), 0);
    history_.clear();
    theta_ = config_.initialTheta;
    thetaCtr_ = 0;
    stats_ = PerceptronStats{};
    latch_.valid = false;
}

std::string
Perceptron::name() const
{
    return config_.label;
}

int
Perceptron::maxAbsWeight() const
{
    int out = 0;
    for (int16_t w : weights_) {
        int a = w < 0 ? -w : w;
        if (a > out)
            out = a;
    }
    return out;
}

} // namespace copra::predictor
