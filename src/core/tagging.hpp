/**
 * @file
 * Branch-instance tagging (paper §3.2).
 *
 * To correlate against a *specific dynamic instance* of a prior branch —
 * needed when several iterations of a tight loop fit in the history — the
 * paper tags each history entry with its static address plus an instance
 * number, using two complementary methods:
 *
 *  - Method A (occurrence numbering): the most recent occurrence of
 *    branch A is A0, the next older is A1, and so on.
 *  - Method B (backward-branch counting): the instance number is how many
 *    taken backward control transfers (loop closings) separate it from
 *    the current branch, which identifies "the same branch, k iterations
 *    ago" even when the branch does not execute every iteration.
 *
 * Branches tagged by the two methods are treated as distinct correlation
 * candidates, exactly as in the paper.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/branch_record.hpp"

namespace copra::core {

/** Instance-tagging method. */
enum class TagMethod : uint8_t
{
    Occurrence = 0,    //!< method A: per-pc occurrence index
    BackwardCount = 1, //!< method B: backward branches since execution
};

/**
 * A packed tag identifying one dynamic instance of a prior branch
 * relative to the current branch: pc, method, and instance number.
 * Layout: pc << 9 | method << 8 | num, so tags order and hash cheaply
 * (the top 9 bits of the pc are dropped).
 */
struct Tag
{
    uint64_t packed = 0;

    Tag() = default;
    Tag(uint64_t pc, TagMethod method, uint8_t num) noexcept
        : packed((pc << 9) |
                 (static_cast<uint64_t>(method) << 8) | num)
    {
    }

    uint64_t pc() const noexcept { return packed >> 9; }
    TagMethod method() const
    {
        return static_cast<TagMethod>((packed >> 8) & 1);
    }
    uint8_t num() const { return static_cast<uint8_t>(packed & 0xff); }

    bool operator==(const Tag &other) const
    {
        return packed == other.packed;
    }
};

/**
 * Slot of a packed tag in a 2^@p bits-slot open-addressing table
 * (Fibonacci hashing: the top bits of packed times 2^64/phi).
 */
constexpr size_t
tagSlot(uint64_t packed, unsigned bits) noexcept
{
    return static_cast<size_t>((packed * 0x9e3779b97f4a7c15ull) >>
                               (64 - bits));
}

/** A tagged instance observed in the history, with its outcome. */
struct TagState
{
    Tag tag;
    bool taken = false;
};

/**
 * Sliding window over the last n conditional branches, maintaining the
 * bookkeeping both tagging methods need. Feed it every trace record in
 * order; before consuming a conditional branch, call collect() to
 * enumerate the tagged instances currently in the path.
 *
 * Cost: each entry carries its method-A occurrence number and its
 * method-B "a newer entry has the same tag" flag. A tag depends only on
 * the entries newer than it, and eviction always removes the oldest
 * entry, so both values change only when a conditional enters; push()
 * updates them in one fixed-length O(n) compare pass over the ring, and
 * collect() is an O(n) walk that only emits tags.
 */
class HistoryWindow
{
  public:
    /** @param depth Window depth n (the paper uses 8..32). */
    explicit HistoryWindow(unsigned depth);

    /** Window depth n. */
    unsigned depth() const { return depth_; }

    /** Number of entries currently held (< depth until warm). */
    unsigned size() const { return count_; }

    /**
     * Enumerate the tagged instances of the branches in the path,
     * newest first, both tagging methods per entry (method B entries
     * deduplicated keeping the most recent). Clears and fills @p out.
     * No tag appears twice.
     */
    void collect(std::vector<TagState> &out) const noexcept;

    /**
     * Advance past a record. Conditional branches enter the window;
     * taken backward conditional branches and backward unconditional
     * jumps advance the method-B iteration count. Calls and returns
     * only pass through.
     */
    void push(const trace::BranchRecord &rec) noexcept;

    /** Forget everything. */
    void clear();

    /** Total taken-backward transfers seen (method B epoch). */
    uint64_t backwardEpoch() const { return backwardEpoch_; }

  private:
    struct Entry
    {
        uint64_t pc;
        uint64_t epoch;      // backwardEpoch_ when this branch executed
        uint32_t occurrence; // newer entries with the same pc (method A)
        bool shadowed;       // a newer entry has the same pc and epoch,
                             // so the same method-B tag (deduplicated)
        bool taken;
    };

    unsigned depth_;
    unsigned count_ = 0;
    unsigned head_ = 0; // ring index of the next slot to write
    uint64_t backwardEpoch_ = 0;
    std::vector<Entry> ring_;
};

} // namespace copra::core
