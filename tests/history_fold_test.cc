/**
 * @file
 * Property tests for FoldedHistory's incrementally folded channels:
 * after every push() of a seeded random outcome stream, each channel
 * must equal the stateless specification fold(length, width). The
 * geometries cover windows shorter than the width, exact multiples of
 * it, the full kMaxBits window, and the extreme widths 1 and 32; the
 * channels must also stay exact across clear() and across a
 * snapshot/restore into a fresh instance.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "predictor/history_fold.hpp"
#include "predictor/state.hpp"
#include "util/rng.hpp"

namespace copra::predictor {
namespace {

constexpr unsigned kMax = FoldedHistory::kMaxBits;

/** (length, width) pairs spanning every shape of the recurrence. */
const std::vector<std::pair<unsigned, unsigned>> kGeometries = {
    {3, 8},    // length < width: nothing ever wraps
    {31, 32},  // length < width at the widest width
    {16, 8},   // length % width == 0: the outgoing bit lands on bit 0
    {64, 32},  // ... across the word boundary of the packed history
    {kMax, 7}, // the whole register, ragged last chunk
    {kMax, 1}, // width 1: the parity of the window
    {kMax, 32},
    {1, 1},
    {65, 10},  // window ends just past the first history word
    {80, 9},   // TAGE's longest default table, tag width
    {80, 8},   // ... and its shifted tag width
};

/** A history with every geometry registered; returns the channel ids. */
std::vector<unsigned>
registerAll(FoldedHistory &history)
{
    std::vector<unsigned> ids;
    for (const auto &[length, width] : kGeometries)
        ids.push_back(history.addChannel(length, width));
    return ids;
}

/** Every channel equals its stateless fold; reports the first miss. */
void
expectChannelsExact(const FoldedHistory &history,
                    const std::vector<unsigned> &ids, int step)
{
    for (size_t i = 0; i < ids.size(); ++i) {
        auto [length, width] = kGeometries[i];
        ASSERT_EQ(history.channel(ids[i]), history.fold(length, width))
            << "channel (L=" << length << ", C=" << width
            << ") diverged after push " << step;
    }
}

TEST(FoldChannels, MatchStatelessFoldAfterEveryPush)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        FoldedHistory history;
        std::vector<unsigned> ids = registerAll(history);
        Rng rng(seed);
        ASSERT_NO_FATAL_FAILURE(expectChannelsExact(history, ids, 0));
        // Biased streams too: long constant runs flush whole windows.
        double p_taken = seed == 3 ? 0.97 : 0.5;
        for (int step = 1; step <= 3000; ++step) {
            history.push(rng.bernoulli(p_taken));
            ASSERT_NO_FATAL_FAILURE(expectChannelsExact(history, ids, step));
        }
    }
}

TEST(FoldChannels, RegisteringMidStreamStartsExact)
{
    FoldedHistory history;
    Rng rng(7);
    for (int step = 0; step < 200; ++step)
        history.push(rng.bernoulli(0.5));
    std::vector<unsigned> ids = registerAll(history);
    for (int step = 1; step <= 500; ++step) {
        history.push(rng.bernoulli(0.5));
        ASSERT_NO_FATAL_FAILURE(expectChannelsExact(history, ids, step));
    }
}

TEST(FoldChannels, DuplicatePairsShareOneChannel)
{
    FoldedHistory history;
    unsigned a = history.addChannel(20, 5);
    unsigned b = history.addChannel(20, 6);
    EXPECT_NE(a, b);
    EXPECT_EQ(history.addChannel(20, 5), a);
}

TEST(FoldChannels, ExactAfterClear)
{
    FoldedHistory history;
    std::vector<unsigned> ids = registerAll(history);
    Rng rng(11);
    for (int step = 0; step < 400; ++step)
        history.push(rng.bernoulli(0.5));
    history.clear();
    ASSERT_NO_FATAL_FAILURE(expectChannelsExact(history, ids, 0));
    for (size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(history.channel(ids[i]), 0u);
    for (int step = 1; step <= 400; ++step) {
        history.push(rng.bernoulli(0.5));
        ASSERT_NO_FATAL_FAILURE(expectChannelsExact(history, ids, step));
    }
}

TEST(FoldChannels, ExactAfterSnapshotRestoreIntoFreshInstance)
{
    FoldedHistory original;
    std::vector<unsigned> ids = registerAll(original);
    Rng rng(13);
    for (int step = 0; step < 777; ++step)
        original.push(rng.bernoulli(0.5));

    state::Writer w;
    original.snapshot(w);
    std::vector<uint8_t> bytes = w.take();
    // The snapshot carries the history words only: channels are
    // derived state and must not change the format.
    EXPECT_EQ(bytes.size(), 16u);

    FoldedHistory restored;
    std::vector<unsigned> restored_ids = registerAll(restored);
    ASSERT_EQ(restored_ids, ids);
    state::Reader r(bytes);
    restored.restore(r);
    ASSERT_NO_FATAL_FAILURE(expectChannelsExact(restored, ids, 0));
    for (int step = 1; step <= 500; ++step) {
        bool taken = rng.bernoulli(0.5);
        original.push(taken);
        restored.push(taken);
        ASSERT_NO_FATAL_FAILURE(expectChannelsExact(restored, ids, step));
        for (unsigned id : ids)
            ASSERT_EQ(restored.channel(id), original.channel(id));
    }
}

} // namespace
} // namespace copra::predictor
