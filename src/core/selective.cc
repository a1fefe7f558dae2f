#include "core/selective.hpp"

#include <bit>

#include "util/logging.hpp"

namespace copra::core {

TagMatcher::TagMatcher(const std::vector<Tag> &tags)
    : count_(static_cast<unsigned>(tags.size()))
{
    panicIf(tags.size() > kMaxTags, "tag matcher holds at most 15 tags");
    constexpr size_t mask = (size_t{1} << kBits) - 1;
    for (unsigned i = 0; i < count_; ++i) {
        uint64_t packed = tags[i].packed;
        size_t slot = tagSlot(packed, kBits);
        while (slots_[slot].fields != 0 && slots_[slot].packed != packed)
            slot = (slot + 1) & mask;
        slots_[slot].packed = packed;
        slots_[slot].fields |= static_cast<uint16_t>(1u << i);
    }
}

uint32_t
TagMatcher::states(const std::vector<TagState> &collected) const noexcept
{
    constexpr size_t mask = (size_t{1} << kBits) - 1;
    uint32_t row = 0;
    unsigned seen = 0; // fields already set: the first match wins
    for (const TagState &ts : collected) {
        size_t slot = tagSlot(ts.tag.packed, kBits);
        while (slots_[slot].fields != 0) {
            if (slots_[slot].packed == ts.tag.packed) {
                unsigned fields = slots_[slot].fields & ~seen;
                seen |= fields;
                uint32_t state = static_cast<uint32_t>(
                    ts.taken ? TagOutcome::Taken : TagOutcome::NotTaken);
                for (; fields != 0; fields &= fields - 1)
                    row |= state << (2 * std::countr_zero(fields));
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    return row;
}

SelectiveTable::SelectiveTable(unsigned arity)
    : arity_(arity)
{
    panicIf(arity == 0 || arity > 8, "selective table arity must be 1..8");
    counters_.assign(pow3(arity), Counter2{});
}

uint32_t
SelectiveTable::patternOf(const TagOutcome *states, unsigned arity) noexcept
{
    uint32_t pattern = 0;
    uint32_t radix = 1;
    for (unsigned i = 0; i < arity; ++i) {
        pattern += static_cast<uint32_t>(states[i]) * radix;
        radix *= 3;
    }
    return pattern;
}

bool
SelectiveTable::predict(uint32_t pattern) const noexcept
{
    panicIf(pattern >= counters_.size(), "selective pattern out of range");
    return counters_[pattern].taken();
}

void
SelectiveTable::update(uint32_t pattern, bool taken) noexcept
{
    panicIf(pattern >= counters_.size(), "selective pattern out of range");
    counters_[pattern].update(taken);
}

SelectivePredictor::SelectivePredictor(
    std::unordered_map<uint64_t, std::vector<Tag>> selections,
    unsigned depth)
    : depth_(depth), window_(depth)
{
    // copra-lint: allow(unordered-iter) -- per-key transform into a keyed container; no cross-key order dependence
    for (const auto &[pc, tags] : selections) {
        panicIf(tags.empty() || tags.size() > 8,
                "selective predictor selections must have 1..8 tags");
        selections_.emplace(pc, TagMatcher(tags));
    }
}

uint32_t
SelectivePredictor::currentPattern(const TagMatcher &matcher) noexcept
{
    window_.collect(scratch_);
    uint32_t states = matcher.states(scratch_);
    TagOutcome digits[8];
    for (unsigned i = 0; i < matcher.size(); ++i)
        digits[i] = static_cast<TagOutcome>((states >> (2 * i)) & 0x3u);
    return SelectiveTable::patternOf(digits, matcher.size());
}

bool
SelectivePredictor::predict(const trace::BranchRecord &br) noexcept
{
    auto sel = selections_.find(br.pc);
    unsigned arity = sel == selections_.end() ? 1 : sel->second.size();
    auto table = tables_.find(br.pc);
    if (table == tables_.end())
        return Counter2{}.taken();
    uint32_t pattern = sel == selections_.end()
        ? 0 : currentPattern(sel->second);
    // Tables are created on first update with the branch's arity; the
    // arity can never change afterwards.
    panicIf(table->second.arity() != arity,
            "selective predictor arity changed");
    return table->second.predict(pattern);
}

void
SelectivePredictor::update(const trace::BranchRecord &br, bool taken) noexcept
{
    auto sel = selections_.find(br.pc);
    unsigned arity = sel == selections_.end() ? 1 : sel->second.size();
    uint32_t pattern = sel == selections_.end()
        ? 0 : currentPattern(sel->second);
    // The paper's hypothetical selective predictor is an analysis
    // instrument with unbounded per-pc tables; it sits outside the
    // perf roster and the runtime hot gates.
    // copra-lint: allow(hot-alloc) -- analysis instrument, unbounded tables
    auto [it, inserted] = tables_.try_emplace(br.pc, arity);
    it->second.update(pattern, taken);
    window_.push(br);
}

void
SelectivePredictor::observe(const trace::BranchRecord &br) noexcept
{
    window_.push(br);
}

void
SelectivePredictor::reset()
{
    window_.clear();
    tables_.clear();
}

std::string
SelectivePredictor::name() const
{
    return "selective(n=" + std::to_string(depth_) + ")";
}

} // namespace copra::core
