/**
 * @file
 * In-memory branch trace container.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "trace/branch_record.hpp"
#include "trace/trace_soa.hpp"

namespace copra::trace {

/**
 * Indexed view of a window of trace records. Records are materialized
 * from the columns on access and yielded by value, so
 * `for (const auto &rec : trace.records())` binds each to a temporary.
 */
class RecordView
{
  public:
    /** Iterator yielding BranchRecord by value. */
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = BranchRecord;
        using difference_type = std::ptrdiff_t;
        using reference = BranchRecord;
        using pointer = void;

        iterator(const SoABlocks *soa, size_t i) : soa_(soa), i_(i) {}

        BranchRecord operator*() const noexcept { return soa_->recordAt(i_); }
        iterator &operator++() noexcept { ++i_; return *this; }
        bool operator==(const iterator &other) const noexcept
        {
            return i_ == other.i_;
        }

      private:
        const SoABlocks *soa_;
        size_t i_;
    };

    RecordView(const SoABlocks &soa, size_t begin, size_t end)
        : soa_(&soa), begin_(begin), end_(end)
    {
    }

    size_t size() const noexcept { return end_ - begin_; }

    BranchRecord
    operator[](size_t i) const noexcept
    {
        return soa_->recordAt(begin_ + i);
    }

    iterator begin() const { return {soa_, begin_}; }
    iterator end() const { return {soa_, end_}; }

    /** Records [offset, offset + count), clamped to this view. */
    RecordView
    subspan(size_t offset, size_t count = ~size_t(0)) const
    {
        size_t b = begin_ + offset;
        return {*soa_, b, count >= end_ - b ? end_ : b + count};
    }

  private:
    const SoABlocks *soa_;
    size_t begin_;
    size_t end_;
};

/**
 * An in-memory branch trace: an ordered sequence of dynamic branch
 * executions plus identifying metadata (benchmark name, generator seed).
 *
 * Traces are append-only during generation and immutable during
 * simulation; all experiment passes iterate the same trace object so
 * per-branch comparisons are exactly aligned.
 *
 * The trace is its column image (soa(), see trace_soa.hpp): the
 * columns are owned, or borrowed from a mapped cache file that stays
 * mapped for as long as any trace, copy or prefix view uses it.
 * Copying a trace or taking a prefix() view copies no column; an
 * append to shared or borrowed columns first moves the trace onto
 * private ones, so views never observe later mutation. soa() is a
 * plain accessor — the indexes are maintained as records arrive —
 * and mutating a trace while another thread reads it is outside the
 * contract.
 */
class Trace
{
  public:
    Trace() = default;

    /** @param name Benchmark / workload identification string. */
    explicit Trace(std::string name, uint64_t seed = 0)
        : name_(std::move(name)), seed_(seed)
    {
    }

    /** A trace over an existing column image (loaders). */
    Trace(std::string name, uint64_t seed, SoABlocks soa)
        : name_(std::move(name)), seed_(seed), soa_(std::move(soa))
    {
    }

    /** Workload name this trace was generated from. */
    const std::string &name() const { return name_; }

    /** Set the workload name (used by trace loaders). */
    void setName(std::string name) { name_ = std::move(name); }

    /** Generator seed recorded for reproducibility. */
    uint64_t seed() const { return seed_; }

    /** Set the recorded generator seed. */
    void setSeed(uint64_t seed) { seed_ = seed; }

    /** Append one dynamic branch execution. */
    void append(const BranchRecord &rec) { soa_.append(rec); }

    /** Append every record of @p other in order (bulk concatenation). */
    void appendTrace(const Trace &other) { soa_.append(other.soa_); }

    /** Total records (all control-transfer kinds). */
    size_t size() const { return soa_.size(); }

    /** True when the trace holds no records. */
    bool empty() const { return soa_.size() == 0; }

    /** Number of conditional branch records. */
    uint64_t conditionalCount() const { return soa_.conditionalCount(); }

    /** Record at position @p i. */
    BranchRecord operator[](size_t i) const { return soa_.recordAt(i); }

    /** Every record, in order (range-for and indexed access). */
    RecordView records() const { return {soa_, 0, soa_.size()}; }

    /** Reserve storage for @p n records. */
    void reserve(size_t n) { soa_.reserve(n); }

    /** Remove all records. */
    void clear() { soa_ = SoABlocks(); }

    /**
     * A view of the first @p n_conditionals conditional branches (and
     * every non-conditional record interleaved before them). The view
     * shares column storage with this trace — no records are copied.
     * Used to run experiments on a prefix of a long trace.
     */
    Trace
    prefix(uint64_t n_conditionals) const
    {
        return {name_, seed_, soa_.prefix(n_conditionals)};
    }

    /** The column image every predictor pass streams. */
    const SoABlocks &soa() const noexcept { return soa_; }

  private:
    std::string name_;
    uint64_t seed_ = 0;
    SoABlocks soa_;
};

} // namespace copra::trace
