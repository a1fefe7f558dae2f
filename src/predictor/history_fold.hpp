/**
 * @file
 * Long global branch history with block folding, shared by the
 * modern-predictor roster (TAGE-lite, hashed perceptron).
 *
 * The compressed value is *specified* statelessly: fold(L, C) is the
 * XOR of consecutive C-bit chunks of the newest L history bits (newest
 * outcome in bit 0 of chunk 0). fold() stays as that one-line
 * specification, which the clarity-first reference models
 * (check/ref_models.hpp) recompute bit-for-bit from a plain
 * std::vector<bool>.
 *
 * The predictors read folds through *channels* instead: Seznec's
 * incrementally folded circular shift registers, one per registered
 * (length, width) pair, each updated in O(1) by push() and equal to
 * fold(length, width) after every push. Channels are derived state:
 * snapshots carry only the two history words, and restore()/clear()
 * recompute the channel values from them, so the snapshot format does
 * not depend on which channels a predictor registered (DESIGN.md §13).
 */

#pragma once

#include <cstdint>

#include "predictor/state.hpp"
#include "util/logging.hpp"

namespace copra::predictor {

/**
 * The newest kMaxBits outcomes of the global branch history, packed into
 * words (newest outcome in bit 0 of word 0), with chunked folding down
 * to table-index width.
 */
class FoldedHistory
{
  public:
    /** Longest history window any consumer may fold. */
    static constexpr unsigned kMaxBits = 128;

    /** Most fold channels one history can maintain (TAGE: 3 x 8). */
    static constexpr unsigned kMaxChannels = 24;

    /**
     * Maintain fold(@p length, @p width) incrementally from now on and
     * return the channel id to read it through channel(). Registering
     * a pair twice returns the existing id. Construction-time only.
     */
    unsigned
    addChannel(unsigned length, unsigned width)
    {
        fatalIf(length == 0 || length > kMaxBits,
                "FoldedHistory channel length must be in 1..kMaxBits");
        fatalIf(width == 0 || width > 32,
                "FoldedHistory channel width must be in 1..32");
        for (unsigned id = 0; id < numChannels_; ++id)
            if (channels_[id].length == length &&
                channels_[id].width == width)
                return id;
        fatalIf(numChannels_ == kMaxChannels,
                "FoldedHistory supports at most kMaxChannels channels");
        Channel &c = channels_[numChannels_];
        c.length = static_cast<uint8_t>(length);
        c.width = static_cast<uint8_t>(width);
        c.outShift = static_cast<uint8_t>(length % width);
        c.mask = (uint64_t(1) << width) - 1;
        c.value = fold(length, width);
        return numChannels_++;
    }

    /** The current fold(length, width) of channel @p id. */
    uint64_t
    channel(unsigned id) const noexcept
    {
        return channels_[id].value;
    }

    /**
     * Shift in a new outcome (true = taken), newest in bit 0, and
     * advance every channel: rotate left by one within its width, XOR
     * in the new outcome at bit 0, and XOR out the outcome leaving the
     * window (history bit length-1 before the shift, which lands on
     * bit length % width after the rotation).
     */
    void
    push(bool taken) noexcept
    {
        const uint64_t in = taken ? 1 : 0;
        for (unsigned id = 0; id < numChannels_; ++id) {
            Channel &c = channels_[id];
            unsigned oldest = c.length - 1u;
            uint64_t out = (words_[oldest >> 6] >> (oldest & 63)) & 1;
            uint64_t v = (c.value << 1) | in;
            v ^= out << c.outShift;
            v ^= v >> c.width;
            c.value = v & c.mask;
        }
        words_[1] = (words_[1] << 1) | (words_[0] >> 63);
        words_[0] = (words_[0] << 1) | in;
    }

    /** Forget all recorded outcomes (channels stay registered). */
    void
    clear()
    {
        words_[0] = words_[1] = 0;
        for (unsigned id = 0; id < numChannels_; ++id)
            channels_[id].value = 0;
    }

    /**
     * Fold the newest @p length outcomes to @p width bits: XOR of
     * consecutive width-bit chunks, newest outcome in bit 0 of the first
     * chunk; the final partial chunk is zero-padded.
     */
    uint64_t
    fold(unsigned length, unsigned width) const noexcept
    {
        panicIf(length > kMaxBits,
                "FoldedHistory::fold length exceeds kMaxBits");
        panicIf(width == 0 || width > 32,
                "FoldedHistory::fold width must be in 1..32");
        uint64_t out = 0;
        for (unsigned lo = 0; lo < length; lo += width) {
            unsigned take = length - lo < width ? length - lo : width;
            out ^= window(lo, take);
        }
        return out;
    }

    /** Serialize the packed history words (state contract). */
    void
    snapshot(state::Writer &w) const
    {
        w.u64(words_[0]);
        w.u64(words_[1]);
    }

    /** Restore history words written by snapshot(); channels are
     *  recomputed from them. */
    void
    restore(state::Reader &r)
    {
        words_[0] = r.u64();
        words_[1] = r.u64();
        for (unsigned id = 0; id < numChannels_; ++id)
            channels_[id].value =
                fold(channels_[id].length, channels_[id].width);
    }

  private:
    /** One incrementally folded register: fold(length, width). */
    struct Channel
    {
        uint64_t value = 0;
        uint64_t mask = 0;    //!< low `width` bits
        uint8_t length = 0;   //!< history window, 1..kMaxBits
        uint8_t width = 0;    //!< folded width, 1..32
        uint8_t outShift = 0; //!< length % width
    };

    /** Bits [lo, lo + take) of the packed history, oldest ones zero. */
    uint64_t
    window(unsigned lo, unsigned take) const noexcept
    {
        uint64_t chunk;
        if (lo >= 64) {
            chunk = words_[1] >> (lo - 64);
        } else if (lo == 0) {
            chunk = words_[0];
        } else {
            chunk = (words_[0] >> lo) | (words_[1] << (64 - lo));
        }
        uint64_t mask = take >= 64 ? ~uint64_t(0)
                                   : ((uint64_t(1) << take) - 1);
        return chunk & mask;
    }

    uint64_t words_[2] = {0, 0};
    Channel channels_[kMaxChannels];
    unsigned numChannels_ = 0;
};

} // namespace copra::predictor
