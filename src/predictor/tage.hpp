/**
 * @file
 * TAGE-lite: a TAgged GEometric-history-length predictor (Seznec &
 * Michaud, 2006), reduced to the parts the paper's "why" analysis needs.
 *
 * A bimodal base table backs N tagged tables whose history lengths grow
 * geometrically. Each tagged entry carries a partial tag, a prediction
 * counter, and a useful counter; the longest-history matching table
 * provides the prediction, entries are allocated on mispredicts into a
 * longer-history table with a free (useful == 0) slot, and the useful
 * counters age periodically so stale entries become reclaimable.
 *
 * Deliberate simplifications versus full TAGE (documented in DESIGN.md
 * §13): no alternate-prediction override of weak entries (USE_ALT_ON_NA)
 * and deterministic first-free-slot allocation instead of randomized
 * candidate choice. History hashing uses incrementally folded channels
 * (predictor/history_fold.hpp), three per tagged table, so one branch
 * costs O(1) history work; predict() latches the per-table indices,
 * tags and provider scan for the matching update(), so each branch
 * scans the tables once.
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

/** Geometry and policy of a TAGE-lite predictor. */
struct TageConfig
{
    unsigned baseBits = 12;   //!< log2 entries of the bimodal base table
    unsigned tableBits = 10;  //!< log2 entries per tagged table
    unsigned tagBits = 9;     //!< partial tag width (1..16)
    unsigned counterBits = 3; //!< tagged-table prediction counter width
    unsigned usefulBits = 2;  //!< useful counter width
    unsigned numTables = 4;   //!< tagged tables (1..8)
    unsigned minHistory = 5;  //!< history length of the first tagged table
    unsigned maxHistory = 80; //!< history length of the last tagged table

    /** Updates between useful-counter halvings (0 disables aging). */
    uint64_t agingPeriod = 256 * 1024;

    std::string label = "tage";

    /** The history length of tagged table @p t (geometric series). */
    unsigned historyLength(unsigned t) const;
};

/** Observable internals for tests, telemetry, and the analysis layer. */
struct TageStats
{
    uint64_t allocations = 0;  //!< tagged entries (re)allocated
    uint64_t allocFailures = 0; //!< mispredicts that found no free slot
    uint64_t agingEvents = 0;  //!< periodic useful-counter halvings
    uint64_t providerTagged = 0; //!< predictions served by a tagged table
    uint64_t providerBase = 0;   //!< predictions served by the base table
};

/** A TAGE-lite predictor realized from a TageConfig. */
class Tage : public Predictor
{
  public:
    explicit Tage(const TageConfig &config);
    ~Tage() override;

    bool predict(const trace::BranchRecord &br) noexcept override;
    void update(const trace::BranchRecord &br, bool taken) noexcept override;
    void reset() override;
    std::string name() const override;

    const TageConfig &config() const { return config_; }
    const TageStats &stats() const { return stats_; }

    /** Largest useful-counter value currently stored (tests). */
    unsigned maxUseful() const;

    /** Sum of all useful counters (tests: aging must shrink it). */
    uint64_t usefulSum() const;

    // State contract (DESIGN.md §14): 2 bits per base counter plus
    // tag + prediction + useful bits per tagged entry. The history
    // register and the aging clock are serialized but not counted
    // (unlike the perceptron, which counts its history bits; §14
    // records the inconsistency).
    uint64_t
    stateBits() const override
    {
        const uint64_t per_entry = uint64_t(config_.tagBits) +
            config_.counterBits + config_.usefulBits;
        return uint64_t(2) * base_.size() + per_entry * tables_.size();
    }

    // The snapshot is per table (a table count, then one
    // length-prefixed vector per table) although the tables share one
    // flat array: the prefixes are the restore side's geometry check.
    void
    snapshotState(state::Writer &w) const override
    {
        state::writeVec(w, base_,
                        [](state::Writer &out, uint8_t c) { out.u8(c); });
        w.u64(config_.numTables);
        for (unsigned t = 0; t < config_.numTables; ++t)
            state::writeSpan(w, table(t),
                             [](state::Writer &out, const Entry &e) {
                                 out.u16(e.tag);
                                 out.u8(e.ctr);
                                 out.u8(e.useful);
                             });
        history_.snapshot(w);
        w.u64(updates_);
    }

    void
    restoreState(state::Reader &r) override
    {
        state::readVec(r, base_,
                       [](state::Reader &in, uint8_t &c) { c = in.u8(); });
        panicIf(r.u64() != config_.numTables,
                "Tage restore: tagged-table count mismatch");
        for (unsigned t = 0; t < config_.numTables; ++t)
            state::readSpan(r, table(t), [](state::Reader &in, Entry &e) {
                e.tag = in.u16();
                e.ctr = in.u8();
                e.useful = in.u8();
            });
        history_.restore(r);
        updates_ = r.u64();
        latch_.valid = false;
    }

    COPRA_CONFIG_FIELDS(config_, lengths_, hashes_);
    COPRA_STATE_FIELDS(base_, tables_, history_, updates_);
    // latch_ carries predict()'s lookup into the matching update(); it
    // is a cache of a pure function of (pc, state), so it is never
    // serialized and update() recomputes whenever it is not valid for
    // the branch at hand.
    COPRA_TRANSIENT_FIELDS(stats_, latch_);

  protected:
    /** One tagged-table entry. */
    struct Entry
    {
        uint16_t tag = 0;
        uint8_t ctr = 0;    //!< prediction counter; taken iff MSB set
        uint8_t useful = 0; //!< replacement protection
    };

    /**
     * Install a fresh entry for @p tag at the chosen slot, initialized
     * weakly toward the observed outcome. Virtual as the seam for the
     * differential harness's allocation-path planted bug
     * (check/differential.cc); real subclasses are not expected.
     */
    virtual void allocateEntry(Entry &slot, uint16_t tag, bool taken) noexcept;

  private:
    static constexpr unsigned kMaxTables = 8;

    /** Fold channels of one tagged table's index and tag hashes. */
    struct TableHash
    {
        unsigned index = 0;  //!< fold(L, tableBits)
        unsigned tag = 0;    //!< fold(L, tagBits)
        unsigned tagAlt = 0; //!< fold(L, tagBits - 1), if tagBits > 1
    };

    /**
     * Provider/alternate selection for one pc under current history,
     * with every tagged table's index and tag so training and
     * allocation need not rehash.
     */
    struct Lookup
    {
        uint64_t pc = 0;
        bool valid = false; //!< latch_ only: computed for pc, unconsumed
        int provider = -1;  //!< tagged table index, -1 = base
        bool prediction = false;
        bool altPrediction = false;
        uint32_t index[kMaxTables] = {};
        uint16_t tag[kMaxTables] = {};
    };

    void lookup(uint64_t pc, Lookup &out) const noexcept;
    size_t indexOf(unsigned t, uint64_t pc) const noexcept;
    uint16_t tagOf(unsigned t, uint64_t pc) const noexcept;
    bool counterTaken(uint8_t ctr, unsigned bits) const noexcept;
    static void bumpCounter(uint8_t &ctr, unsigned bits, bool up) noexcept;

    /** Tagged table @p t: a stride-sized slice of tables_. */
    std::span<Entry>
    table(unsigned t) noexcept
    {
        const size_t stride = size_t(1) << config_.tableBits;
        return {tables_.data() + t * stride, stride};
    }

    std::span<const Entry>
    table(unsigned t) const noexcept
    {
        const size_t stride = size_t(1) << config_.tableBits;
        return {tables_.data() + t * stride, stride};
    }

    TageConfig config_;
    std::vector<uint8_t> base_;     //!< bimodal counters (2-bit)
    std::vector<Entry> tables_;     //!< tagged tables, table-major
    std::vector<unsigned> lengths_; //!< per-table history length
    std::vector<TableHash> hashes_; //!< per-table fold channels
    FoldedHistory history_;
    uint64_t updates_ = 0; //!< branches trained since reset (drives aging)
    TageStats stats_;
    Lookup latch_; //!< predict()'s lookup, consumed by update()
};

} // namespace copra::predictor
