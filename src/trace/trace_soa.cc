#include "trace/trace_soa.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace copra::trace {

/**
 * The memory behind one or more images: owned columns (empty when the
 * columns are borrowed), the keeper of borrowed columns, and the static
 * index with the pc → index table that extends it.
 */
struct SoABlocks::Store
{
    std::vector<uint64_t> pc;
    std::vector<uint64_t> target;
    std::vector<uint8_t> kind;
    std::vector<uint8_t> taken;
    std::shared_ptr<const void> keeper; //!< holds borrowed columns
    std::vector<uint32_t> staticIndex;
    std::vector<uint64_t> staticPcs;

    /** pc → dense index table: open addressing, linear probing. */
    struct Slot
    {
        uint64_t pc = 0;
        uint32_t idPlusOne = 0; //!< 0 = empty
    };
    std::vector<Slot> slots = std::vector<Slot>(1024);

    static size_t
    home(uint64_t pc_value, size_t mask)
    {
        return static_cast<size_t>((pc_value * 0x9e3779b97f4a7c15ull) >> 32) &
            mask;
    }

    /** Dense static index of @p pc, assigning the next one if new. */
    uint32_t
    idOf(uint64_t pc_value)
    {
        size_t mask = slots.size() - 1;
        size_t j = home(pc_value, mask);
        while (slots[j].idPlusOne != 0) {
            if (slots[j].pc == pc_value)
                return slots[j].idPlusOne - 1;
            j = (j + 1) & mask;
        }
        auto id = static_cast<uint32_t>(staticPcs.size());
        staticPcs.push_back(pc_value);
        slots[j] = {pc_value, id + 1};
        // At most a quarter full: short probes keep the per-record
        // lookup nearly branch-predictable.
        if (staticPcs.size() * 4 >= slots.size())
            rehash(slots.size() * 2);
        return id;
    }

    /** Rebuild the table at @p capacity (a power of two). */
    void
    rehash(size_t capacity)
    {
        slots.assign(capacity, Slot{});
        for (uint32_t id = 0; id < staticPcs.size(); ++id) {
            size_t j = home(staticPcs[id], capacity - 1);
            while (slots[j].idPlusOne != 0)
                j = (j + 1) & (capacity - 1);
            slots[j] = {staticPcs[id], id + 1};
        }
    }
};

SoABlocks
SoABlocks::borrow(const uint64_t *pc, const uint64_t *target,
                  const uint8_t *kind, const uint8_t *taken, size_t n,
                  std::shared_ptr<const void> keeper)
{
    uint8_t max_kind = 0;
    uint8_t max_taken = 0;
    for (size_t i = 0; i < n; ++i) {
        max_kind = std::max(max_kind, kind[i]);
        max_taken = std::max(max_taken, taken[i]);
    }
    if (max_kind > static_cast<uint8_t>(BranchKind::Return))
        throw std::runtime_error("copra trace: invalid branch kind");
    if (max_taken > 1)
        throw std::runtime_error("copra trace: taken byte is not 0/1");

    SoABlocks out;
    out.store_ = std::make_shared<Store>();
    Store &s = *out.store_;
    s.keeper = std::move(keeper);
    s.staticIndex.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        s.staticIndex.push_back(s.idOf(pc[i]));
        out.noteKind(i, kind[i]);
    }
    out.pc_ = pc;
    out.target_ = target;
    out.kind_ = kind;
    out.taken_ = taken;
    out.size_ = n;
    out.refresh();
    return out;
}

void
SoABlocks::refresh()
{
    Store &s = *store_;
    if (!s.keeper) {
        pc_ = s.pc.data();
        target_ = s.target.data();
        kind_ = s.kind.data();
        taken_ = s.taken.data();
    }
    staticIndex_ = s.staticIndex.data();
    staticPcs_ = s.staticPcs.data();
    staticCount_ = s.staticPcs.size();
}

void
SoABlocks::noteKind(size_t i, uint8_t kind)
{
    if (kind != static_cast<uint8_t>(BranchKind::Conditional))
        return;
    if (!segments_.empty() &&
        segments_.back().begin + segments_.back().count == i)
        ++segments_.back().count;
    else
        segments_.push_back({i, 1});
    ++conditionals_;
}

bool
SoABlocks::ownsTail() const noexcept
{
    // Only an image that is the sole user of owned columns, and whose
    // window ends where they end, may write past its last record:
    // anything else would change memory a copy or a view still reads.
    return store_ && store_.use_count() == 1 && !store_->keeper &&
        store_->pc.size() == size_;
}

void
SoABlocks::detach()
{
    if (ownsTail())
        return;
    auto next = std::make_shared<Store>();
    Store &s = *next;
    s.pc.assign(pc_, pc_ + size_);
    s.target.assign(target_, target_ + size_);
    s.kind.assign(kind_, kind_ + size_);
    s.taken.assign(taken_, taken_ + size_);
    s.staticIndex.assign(staticIndex_, staticIndex_ + size_);
    s.staticPcs.assign(staticPcs_, staticPcs_ + staticCount_);
    size_t slots = s.slots.size();
    while (s.staticPcs.size() * 4 >= slots)
        slots *= 2;
    s.rehash(slots);
    store_ = std::move(next);
    refresh();
}

void
SoABlocks::append(const BranchRecord &rec)
{
    if (!ownsTail() || size_ == store_->pc.capacity()) [[unlikely]]
        reserve(std::max<size_t>(64, 2 * size_));
    // The columns have room (see reserve()), so the pushes below never
    // move them; only a new static branch can move staticPcs.
    Store &s = *store_;
    auto kind = static_cast<uint8_t>(rec.kind);
    uint32_t id = s.idOf(rec.pc);
    s.pc.push_back(rec.pc);
    s.target.push_back(rec.target);
    s.staticIndex.push_back(id);
    s.kind.push_back(kind);
    s.taken.push_back(rec.taken ? 1 : 0);
    if (id == staticCount_) {
        staticPcs_ = s.staticPcs.data();
        staticCount_ = id + 1;
    }
    noteKind(size_++, kind);
}

void
SoABlocks::append(const SoABlocks &other)
{
    // Hold the source's memory across our own detach (other may be
    // *this, or a view of the columns detach() replaces).
    const SoABlocks src = other;
    size_t n = src.size_;
    if (n == 0)
        return;
    if (!ownsTail() || store_->pc.capacity() < size_ + n)
        reserve(std::max(size_ + n, 2 * size_));
    Store &s = *store_;
    s.pc.insert(s.pc.end(), src.pc_, src.pc_ + n);
    s.target.insert(s.target.end(), src.target_, src.target_ + n);
    s.kind.insert(s.kind.end(), src.kind_, src.kind_ + n);
    s.taken.insert(s.taken.end(), src.taken_, src.taken_ + n);
    // Map the source's static indexes to ours once per static branch,
    // in its first-appearance order — the ids a record-by-record
    // append would assign.
    std::vector<uint32_t> remap(src.staticCount_);
    for (size_t id = 0; id < src.staticCount_; ++id)
        remap[id] = s.idOf(src.staticPcs_[id]);
    for (size_t i = 0; i < n; ++i)
        s.staticIndex.push_back(remap[src.staticIndex_[i]]);
    for (const Segment &seg : src.segments_) {
        size_t begin = size_ + seg.begin;
        if (!segments_.empty() &&
            segments_.back().begin + segments_.back().count == begin)
            segments_.back().count += seg.count;
        else
            segments_.push_back({begin, seg.count});
    }
    conditionals_ += src.conditionals_;
    size_ += n;
    refresh();
}

void
SoABlocks::reserve(size_t n)
{
    detach();
    // Every column holds at least as many records as pc, so appends
    // that fit pc's capacity never move a column.
    Store &s = *store_;
    s.pc.reserve(n);
    n = s.pc.capacity();
    s.target.reserve(n);
    s.kind.reserve(n);
    s.taken.reserve(n);
    s.staticIndex.reserve(n);
    refresh();
}

SoABlocks
SoABlocks::prefix(uint64_t n_conditionals) const
{
    if (n_conditionals >= conditionals_)
        return *this;
    // The cut falls just before conditional #n_conditionals, which
    // lives in segment k.
    uint64_t seen = 0;
    size_t k = 0;
    while (seen + segments_[k].count <= n_conditionals)
        seen += segments_[k++].count;
    SoABlocks out;
    out.store_ = store_;
    out.pc_ = pc_;
    out.target_ = target_;
    out.kind_ = kind_;
    out.taken_ = taken_;
    out.staticIndex_ = staticIndex_;
    out.staticPcs_ = staticPcs_;
    out.size_ = segments_[k].begin + (n_conditionals - seen);
    out.segments_.assign(segments_.begin(),
                         segments_.begin() + static_cast<ptrdiff_t>(k));
    if (n_conditionals > seen)
        out.segments_.push_back(
            {segments_[k].begin, size_t(n_conditionals - seen)});
    out.conditionals_ = n_conditionals;
    // Static indexes are assigned in first-appearance order, so the
    // window uses exactly the ids below its largest one.
    for (size_t i = 0; i < out.size_; ++i)
        out.staticCount_ = std::max<size_t>(out.staticCount_,
                                            staticIndex_[i] + size_t(1));
    return out;
}

} // namespace copra::trace
