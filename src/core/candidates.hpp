/**
 * @file
 * Correlation candidate mining: the first pass of the selective-history
 * oracle (§3.4). For every static branch X it accumulates, per tagged
 * prior-instance t, the joint statistics of (state of t, outcome of X),
 * and scores candidates by the information the 3-valued state of t
 * carries about X's direction.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/tagging.hpp"
#include "trace/trace.hpp"

namespace copra::core {

/** Joint counts of one candidate tag against one current branch. */
struct Contingency
{
    // present[tag taken][X taken]; not-in-path counts are derived from
    // the branch's execution totals.
    uint32_t present[2][2] = {{0, 0}, {0, 0}};

    uint32_t presentTotal() const
    {
        return present[0][0] + present[0][1] + present[1][0] +
            present[1][1];
    }
};

/** A scored correlation candidate for one static branch. */
struct ScoredCandidate
{
    Tag tag;
    double gain = 0.0; //!< information gain about the branch outcome
};

/**
 * One branch's contingencies keyed by Tag::packed: a flat
 * open-addressing table (linear probing, power-of-two size, load kept
 * at or below 0.75). The slot array is the whole store; the packed tag
 * with every bit set marks an empty slot (that tag would need a 55-bit
 * pc of all ones and is never stored).
 */
class ContingencyTable
{
  public:
    /** One slot: a packed tag and its counts. */
    struct Slot
    {
        uint64_t packed;
        Contingency counts;
    };

    /** Packed value of an empty slot. */
    static constexpr uint64_t kEmpty = ~uint64_t{0};

    /** Distinct tags stored. */
    size_t size() const noexcept { return size_; }

    /**
     * Counts of the tag @p packed, inserted zeroed when absent and
     * fewer than @p cap tags are stored; nullptr when absent at the cap.
     */
    Contingency *findOrInsert(uint64_t packed, size_t cap);

    /** Calls fn(Tag, const Contingency &) for every stored tag. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_)
            if (slot.packed != kEmpty) {
                Tag tag;
                tag.packed = slot.packed;
                fn(tag, slot.counts);
            }
    }

  private:
    /** The slot holding @p packed, or the empty slot where it goes. */
    size_t probe(uint64_t packed) const noexcept;
    void grow();

    std::vector<Slot> slots_;
    size_t size_ = 0;
};

/**
 * Per-static-branch candidate statistics accumulated during mining.
 * The per-branch tag table is capped to bound memory on very branchy
 * workloads; once the cap is hit, new tags are ignored (existing tags
 * keep accumulating) and `capped` is set.
 */
struct BranchCandidates
{
    uint64_t execsTaken = 0;
    uint64_t execsNotTaken = 0;
    bool capped = false;
    ContingencyTable tags;

    uint64_t execs() const { return execsTaken + execsNotTaken; }
};

/**
 * Mining pass over a trace. Tracks an n-deep HistoryWindow and, for each
 * dynamic conditional branch, charges every tagged instance in the
 * window against the branch's outcome.
 *
 * Storage and cost: branches are addressed by the trace's dense static
 * index (trace::SoABlocks::staticIndex()), each holding one flat
 * ContingencyTable, so a dynamic branch costs one O(n) window collect
 * and at most 2n probes into one table.
 */
class CandidateMiner
{
  public:
    /**
     * @param depth History window depth n.
     * @param per_branch_cap Maximum distinct tags tracked per branch.
     */
    explicit CandidateMiner(unsigned depth, size_t per_branch_cap = 4096);

    /**
     * Mine the first @p max_conditionals conditional branches of
     * @p trace (0 = the whole trace). May be called once per miner.
     */
    void mine(const trace::Trace &trace, uint64_t max_conditionals = 0);

    /**
     * The top @p k candidates for @p pc by information gain, best first
     * (ties broken by ascending packed tag). Fewer than k are returned
     * when the branch has fewer distinct correlated instances.
     */
    std::vector<ScoredCandidate> topCandidates(uint64_t pc,
                                               unsigned k) const;

    /** Mined statistics for @p pc (nullptr if the branch never ran). */
    const BranchCandidates *branch(uint64_t pc) const;

    /**
     * Information gain of a candidate's 3-valued state about the branch
     * outcome (in bits). Exposed for tests.
     */
    static double informationGain(const BranchCandidates &branch,
                                  const Contingency &tag);

  private:
    unsigned depth_;
    size_t perBranchCap_;
    bool mined_ = false;
    std::vector<BranchCandidates> table_; // by dense static index
    std::vector<std::pair<uint64_t, uint32_t>> byPc_; // (pc, index), sorted
};

} // namespace copra::core

