/**
 * @file
 * Hashed perceptron predictor (Tarjan & Skadron, 2005 lineage): N small
 * weight tables, each indexed by the XOR of the branch address with one
 * folded segment of global history, summed with integer-only arithmetic
 * and trained against an adaptively tuned magnitude threshold
 * (Seznec's O-GEHL threshold-fitting counter).
 *
 * Compared with the original per-branch perceptron, hashing shares the
 * weight storage across branches (capacity), bounds the adder tree to N
 * terms regardless of history length (latency), and lets mildly
 * conflicting branches share weights gracefully (interference behaves
 * like gshare's, analyzed in EXPERIMENTS.md). Each history table reads
 * its fold from an incrementally folded channel (history_fold.hpp), and
 * predict() latches the indices and sum for the matching update().
 * Implementation choices are documented in DESIGN.md §13.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "predictor/history_fold.hpp"
#include "predictor/predictor.hpp"
#include "predictor/state.hpp"

namespace copra::predictor {

/** Geometry and training policy of a hashed perceptron. */
struct PerceptronConfig
{
    unsigned tableBits = 12;   //!< log2 entries per weight table
    unsigned numTables = 8;    //!< weight tables, including the bias table
    unsigned segmentBits = 8;  //!< history bits folded into each table
    int weightMin = -64;       //!< saturation floor (inclusive)
    int weightMax = 63;        //!< saturation ceiling (inclusive)
    int initialTheta = 18;     //!< starting training threshold
    int thetaCounterSat = 64;  //!< adaptation counter saturation (TC)
    std::string label = "perceptron";

    /** History bits consumed: (numTables - 1) segments. */
    unsigned historyBits() const { return (numTables - 1) * segmentBits; }
};

/** Observable internals for tests and telemetry. */
struct PerceptronStats
{
    uint64_t trainEvents = 0;     //!< updates that adjusted weights
    uint64_t thresholdAdapts = 0; //!< theta increments + decrements
};

/** A hashed perceptron realized from a PerceptronConfig. */
class Perceptron : public Predictor
{
  public:
    explicit Perceptron(const PerceptronConfig &config);
    ~Perceptron() override;

    bool predict(const trace::BranchRecord &br) noexcept override;
    void update(const trace::BranchRecord &br, bool taken) noexcept override;
    void reset() override;
    std::string name() const override;

    const PerceptronConfig &config() const { return config_; }
    const PerceptronStats &stats() const { return stats_; }

    /** Current training threshold (tests: adaptation moves it). */
    int theta() const { return theta_; }

    /** Largest |weight| currently stored (tests: saturation bound). */
    int maxAbsWeight() const;

    // State contract (DESIGN.md §14): enough bits per weight to span
    // [weightMin, weightMax], plus the folded history and the adaptive
    // threshold machinery (theta and its fitting counter, 16 bits each
    // by the O-GEHL convention).
    uint64_t
    stateBits() const override
    {
        const uint64_t span =
            uint64_t(config_.weightMax - config_.weightMin) + 1;
        uint64_t weight_bits = 1;
        while ((uint64_t(1) << weight_bits) < span)
            ++weight_bits;
        uint64_t bits = weights_.size() * weight_bits;
        return bits + config_.historyBits() + 16 + 16;
    }

    // The snapshot is per table (a table count, then one
    // length-prefixed vector per table) although the tables share one
    // flat array: the prefixes are the restore side's geometry check.
    void
    snapshotState(state::Writer &w) const override
    {
        w.u64(config_.numTables);
        for (unsigned t = 0; t < config_.numTables; ++t)
            state::writeSpan(w, table(t), [](state::Writer &out, int16_t v) {
                out.i16(v);
            });
        history_.snapshot(w);
        w.i32(theta_);
        w.i32(thetaCtr_);
    }

    void
    restoreState(state::Reader &r) override
    {
        panicIf(r.u64() != config_.numTables,
                "Perceptron restore: weight-table count mismatch");
        for (unsigned t = 0; t < config_.numTables; ++t)
            state::readSpan(r, table(t), [](state::Reader &in, int16_t &v) {
                v = in.i16();
            });
        history_.restore(r);
        theta_ = r.i32();
        thetaCtr_ = r.i32();
        latch_.valid = false;
    }

    COPRA_CONFIG_FIELDS(config_, channels_);
    COPRA_STATE_FIELDS(weights_, history_, theta_, thetaCtr_);
    // latch_ carries predict()'s indices and sum into the matching
    // update(); it caches a pure function of (pc, state), is never
    // serialized, and update() recomputes whenever it is not valid for
    // the branch at hand.
    COPRA_TRANSIENT_FIELDS(stats_, latch_);

  protected:
    /**
     * Saturate @p weight one step toward @p taken. Virtual as the seam
     * for the differential harness's wraparound planted bug
     * (check/differential.cc); real subclasses are not expected.
     */
    virtual int clampWeight(int weight, bool taken) const noexcept;

  private:
    static constexpr unsigned kMaxTables = 16;

    /** Per-table weight indices and their sum for one pc. */
    struct Lookup
    {
        uint64_t pc = 0;
        bool valid = false; //!< latch_ only: computed for pc, unconsumed
        int yout = 0;       //!< dot product; predict taken iff >= 0
        uint32_t index[kMaxTables] = {};
    };

    void lookup(uint64_t pc, Lookup &out) const noexcept;
    size_t indexOf(unsigned t, uint64_t pc) const noexcept;

    /** Weight table @p t: a stride-sized slice of weights_. */
    std::span<int16_t>
    table(unsigned t) noexcept
    {
        const size_t stride = size_t(1) << config_.tableBits;
        return {weights_.data() + t * stride, stride};
    }

    std::span<const int16_t>
    table(unsigned t) const noexcept
    {
        const size_t stride = size_t(1) << config_.tableBits;
        return {weights_.data() + t * stride, stride};
    }

    PerceptronConfig config_;
    std::vector<int16_t> weights_;   //!< weight tables, table-major
    std::vector<unsigned> channels_; //!< fold channel per table (t >= 1)
    FoldedHistory history_;
    int theta_;       //!< current training threshold
    int thetaCtr_ = 0; //!< threshold-fitting counter (TC)
    PerceptronStats stats_;
    Lookup latch_; //!< predict()'s lookup, consumed by update()
};

} // namespace copra::predictor
