/**
 * @file
 * The one in-memory representation of a branch trace: per-field
 * columns plus the indexes every simulation pass reuses.
 *
 * The simulation hot loops stream one or two fields of every record
 * (pc and taken), so a trace is stored column-major — pc[], target[],
 * kind[], taken[] — with the maximal runs of consecutive conditional
 * branches and a dense static-branch index computed alongside. Columns
 * either live in buffers the image owns (generation, ingest, stream
 * loads) or are borrowed from memory someone else keeps alive — a
 * mapped cache file — through a shared keeper. Either way the image is
 * immutable once shared: copies and prefix() views share the columns
 * and the static index, and an append to a shared or borrowed image
 * first moves it onto private buffers.
 *
 * BranchRecord values are materialized on demand (recordAt()); the
 * simulation driver hands each conditional segment's columns to a
 * predictor's batch entry point as they are.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "trace/branch_record.hpp"

namespace copra::trace {

/** Column-major (structure-of-arrays) image of one branch trace. */
class SoABlocks
{
  public:
    /** A maximal run of consecutive conditional records. */
    struct Segment
    {
        size_t begin = 0; //!< index of the first record of the run
        size_t count = 0; //!< number of consecutive conditionals
    };

    SoABlocks() = default;

    /**
     * Adopt @p n records of columns that @p keeper keeps alive, without
     * copying them, and build the segment list and static index.
     *
     * @throws std::runtime_error when a kind byte is not a BranchKind
     * encoding or a taken byte is not 0/1 — a borrowed column cannot be
     * normalized in place.
     */
    static SoABlocks borrow(const uint64_t *pc, const uint64_t *target,
                            const uint8_t *kind, const uint8_t *taken,
                            size_t n, std::shared_ptr<const void> keeper);

    /** Append one record, maintaining segments and static index. */
    void append(const BranchRecord &rec);

    /** Append every record of @p other in order. */
    void append(const SoABlocks &other);

    /** Reserve owned column storage for @p n records. */
    void reserve(size_t n);

    /**
     * The first @p n_conditionals conditional records and every
     * non-conditional record before the next one: a window over the
     * same columns and static index (nothing per-record is copied).
     */
    SoABlocks prefix(uint64_t n_conditionals) const;

    /** Total records (all control-transfer kinds). */
    size_t size() const noexcept { return size_; }

    /** Number of conditional records across all segments. */
    uint64_t conditionalCount() const noexcept { return conditionals_; }

    /** Branch addresses, one per record. */
    const uint64_t *pc() const noexcept { return pc_; }

    /** Taken-path targets, one per record. */
    const uint64_t *target() const noexcept { return target_; }

    /** BranchKind encodings, one byte per record. */
    const uint8_t *kind() const noexcept { return kind_; }

    /** Outcomes (0/1), one byte per record. */
    const uint8_t *taken() const noexcept { return taken_; }

    /**
     * Dense static-branch index, one entry per record: records with the
     * same pc share one index in [0, staticCount()), assigned in order
     * of first appearance. Ledger passes accumulate per-branch tallies
     * into a flat array addressed by this column, replacing a hashed
     * map probe per dynamic branch with one indexed add.
     */
    const uint32_t *staticIndex() const noexcept { return staticIndex_; }

    /** Distinct branch addresses; position = dense static index. */
    std::span<const uint64_t>
    staticPcs() const noexcept
    {
        return {staticPcs_, staticCount_};
    }

    /** Number of distinct branch addresses in the trace. */
    size_t staticCount() const noexcept { return staticCount_; }

    /** Maximal conditional runs, in trace order. */
    std::span<const Segment> conditionalSegments() const noexcept
    {
        return segments_;
    }

    /** Materialize record @p i. */
    BranchRecord
    recordAt(size_t i) const noexcept
    {
        return {pc_[i], target_[i], static_cast<BranchKind>(kind_[i]),
                taken_[i] != 0};
    }

  private:
    struct Store;

    /** True when appends may write the columns in place. */
    bool ownsTail() const noexcept;

    /**
     * Move this image's window onto private owned columns unless it
     * already owns its tail.
     */
    void detach();

    /** Re-read the column pointers after the owned buffers changed. */
    void refresh();

    /** Extend the segment list with record @p i of kind @p kind. */
    void noteKind(size_t i, uint8_t kind);

    std::shared_ptr<Store> store_;
    const uint64_t *pc_ = nullptr;
    const uint64_t *target_ = nullptr;
    const uint8_t *kind_ = nullptr;
    const uint8_t *taken_ = nullptr;
    const uint32_t *staticIndex_ = nullptr;
    const uint64_t *staticPcs_ = nullptr;
    size_t size_ = 0;
    size_t staticCount_ = 0;
    std::vector<Segment> segments_;
    uint64_t conditionals_ = 0;
};

} // namespace copra::trace
