#include "core/tagging.hpp"

#include "util/logging.hpp"

namespace copra::core {

HistoryWindow::HistoryWindow(unsigned depth)
    : depth_(depth)
{
    panicIf(depth == 0 || depth > 64, "history window depth must be 1..64");
    ring_.resize(depth);
}

void
HistoryWindow::push(const trace::BranchRecord &rec) noexcept
{
    switch (rec.kind) {
      case trace::BranchKind::Conditional:
        // Every held entry is older than the one entering: one more
        // newer entry shares its pc, and when that entry also ran in
        // the current iteration it carries the same method-B tag. The
        // pass covers the whole ring; slots not yet filled are
        // overwritten before they are read.
        for (Entry &entry : ring_) {
            if (entry.pc == rec.pc) {
                ++entry.occurrence;
                entry.shadowed |= entry.epoch == backwardEpoch_;
            }
        }
        ring_[head_] = {rec.pc, backwardEpoch_, 0, false, rec.taken};
        head_ = head_ + 1 == depth_ ? 0 : head_ + 1;
        if (count_ < depth_)
            ++count_;
        if (rec.taken && rec.isBackward())
            ++backwardEpoch_;
        break;
      case trace::BranchKind::Jump:
        if (rec.isBackward())
            ++backwardEpoch_;
        break;
      case trace::BranchKind::Call:
      case trace::BranchKind::Return:
        // Calls and returns are not iteration boundaries.
        break;
    }
}

void
HistoryWindow::collect(std::vector<TagState> &out) const noexcept
{
    out.clear();
    // Analysis-side tagging window for the selective predictor:
    // capacity stabilizes after the first few collect() calls and the
    // path is outside the runtime hot gates.
    // copra-lint: allow(hot-alloc) -- analysis-side, capacity stabilizes
    out.reserve(2 * count_);

    // Newest-first walk of the ring. Method A's instance number is the
    // entry's occurrence count; method B's is the backward-transfer
    // count since the entry executed, reported for the newest entry
    // per (pc, num) only, and only while it fits the 8-bit field.
    unsigned slot = head_;
    for (unsigned i = 0; i < count_; ++i) {
        slot = slot == 0 ? depth_ - 1 : slot - 1;
        const Entry &entry = ring_[slot];
        // copra-lint: allow(hot-alloc) -- within the reserve() above
        out.push_back({Tag(entry.pc, TagMethod::Occurrence,
                           static_cast<uint8_t>(entry.occurrence)),
                       entry.taken});
        uint64_t back = backwardEpoch_ - entry.epoch;
        if (back <= 0xff && !entry.shadowed) {
            // copra-lint: allow(hot-alloc) -- within the reserve() above
            out.push_back({Tag(entry.pc, TagMethod::BackwardCount,
                               static_cast<uint8_t>(back)),
                           entry.taken});
        }
    }
}

void
HistoryWindow::clear()
{
    count_ = 0;
    head_ = 0;
    backwardEpoch_ = 0;
}

} // namespace copra::core
