/**
 * @file
 * Tests for the column representation of a trace and the v2 loaders:
 * columns against the record view over fuzzed traces,
 * segment and static-index maintenance under append / appendTrace /
 * prefix, column sharing across copies and views, the mapped loader's
 * lifetime guarantees, and both loaders' rejection of truncated,
 * garbage, wrong-version, wrapping-count and non-boolean-outcome files.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "check/fuzz.hpp"
#include "trace/trace.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_soa.hpp"

namespace copra::trace {
namespace {

namespace fs = std::filesystem;

/** Every record of @p t, materialized. */
std::vector<BranchRecord>
recordsOf(const Trace &t)
{
    return {t.records().begin(), t.records().end()};
}

/** @p t rebuilt by appending its records one at a time. */
Trace
rebuilt(const Trace &t)
{
    Trace out(t.name(), t.seed());
    for (const BranchRecord &rec : t.records())
        out.append(rec);
    return out;
}

/** Same records, segments and static index. */
void
expectSameImage(const Trace &a, const Trace &b)
{
    const SoABlocks &sa = a.soa();
    const SoABlocks &sb = b.soa();
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(sa.conditionalCount(), sb.conditionalCount());
    for (size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "record " << i;
        ASSERT_EQ(sa.staticIndex()[i], sb.staticIndex()[i]) << i;
    }
    ASSERT_EQ(sa.staticCount(), sb.staticCount());
    for (size_t id = 0; id < sa.staticCount(); ++id)
        EXPECT_EQ(sa.staticPcs()[id], sb.staticPcs()[id]);
    ASSERT_EQ(sa.conditionalSegments().size(),
              sb.conditionalSegments().size());
    for (size_t k = 0; k < sa.conditionalSegments().size(); ++k) {
        EXPECT_EQ(sa.conditionalSegments()[k].begin,
                  sb.conditionalSegments()[k].begin);
        EXPECT_EQ(sa.conditionalSegments()[k].count,
                  sb.conditionalSegments()[k].count);
    }
}

TEST(TraceSoa, RecordViewMatchesTheColumns)
{
    // Property over the adversarial fuzz corpus: the record view, the
    // indexed accessor and the columns agree index for index.
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Trace t = check::fuzzTrace(seed, 700);
        const SoABlocks &soa = t.soa();
        ASSERT_EQ(soa.size(), t.size()) << "seed " << seed;
        EXPECT_EQ(soa.conditionalCount(), t.conditionalCount());
        RecordView view = t.records();
        ASSERT_EQ(view.size(), t.size());
        size_t i = 0;
        for (const BranchRecord &rec : view) {
            ASSERT_EQ(soa.pc()[i], rec.pc) << "seed " << seed;
            ASSERT_EQ(soa.target()[i], rec.target);
            ASSERT_EQ(soa.kind()[i], static_cast<uint8_t>(rec.kind));
            ASSERT_EQ(soa.taken()[i] != 0, rec.taken);
            ASSERT_LE(soa.taken()[i], 1);
            ASSERT_EQ(soa.recordAt(i), rec);
            ASSERT_EQ(t[i], rec);
            ASSERT_EQ(view[i], rec);
            ++i;
        }
        EXPECT_EQ(i, t.size());
        RecordView tail = view.subspan(t.size() / 2);
        ASSERT_EQ(tail.size(), t.size() - t.size() / 2);
        EXPECT_EQ(tail[0], t[t.size() / 2]);
    }
}

TEST(TraceSoa, SegmentsCoverExactlyTheConditionalRuns)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Trace t = check::fuzzTrace(seed, 500);
        const SoABlocks &soa = t.soa();
        std::vector<uint8_t> covered(t.size(), 0);
        uint64_t in_segments = 0;
        size_t prev_end = 0;
        for (const SoABlocks::Segment &seg : soa.conditionalSegments()) {
            ASSERT_GT(seg.count, 0u);
            ASSERT_GE(seg.begin, prev_end) << "segments must not overlap";
            // Maximality: the records flanking the run are never
            // conditional.
            if (seg.begin > 0) {
                EXPECT_NE(t[seg.begin - 1].kind, BranchKind::Conditional);
            }
            if (seg.begin + seg.count < t.size()) {
                EXPECT_NE(t[seg.begin + seg.count].kind,
                          BranchKind::Conditional);
            }
            for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
                EXPECT_EQ(t[i].kind, BranchKind::Conditional);
                covered[i] = 1;
            }
            in_segments += seg.count;
            prev_end = seg.begin + seg.count;
        }
        EXPECT_EQ(in_segments, t.conditionalCount()) << "seed " << seed;
        for (size_t i = 0; i < t.size(); ++i)
            EXPECT_EQ(covered[i] != 0,
                      t[i].kind == BranchKind::Conditional)
                << "seed " << seed << " rec " << i;
    }
}

TEST(TraceSoa, StaticIndexIsDenseInFirstAppearanceOrder)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Trace t = check::fuzzTrace(seed, 600);
        const SoABlocks &soa = t.soa();
        uint32_t next = 0;
        for (size_t i = 0; i < t.size(); ++i) {
            uint32_t id = soa.staticIndex()[i];
            ASSERT_LE(id, next) << "ids must appear in order";
            if (id == next)
                ++next;
            ASSERT_EQ(soa.staticPcs()[id], soa.pc()[i]);
        }
        EXPECT_EQ(next, soa.staticCount());
    }
}

TEST(TraceSoa, AppendTraceMatchesRecordByRecordAppend)
{
    // Concatenation remaps static ids per static branch and merges
    // segments across the seam; the result must equal appending every
    // record one at a time — including appending a trace to itself.
    Trace a = check::fuzzTrace(3, 300);
    Trace b = check::fuzzTrace(4, 300);
    Trace joined("joined", 0);
    joined.appendTrace(a);
    joined.appendTrace(b);
    joined.appendTrace(joined);
    Trace expected("joined", 0);
    for (int round = 0; round < 2; ++round) {
        for (const BranchRecord &rec : a.records())
            expected.append(rec);
        for (const BranchRecord &rec : b.records())
            expected.append(rec);
    }
    expectSameImage(joined, expected);

    // Record appends and concatenations interleaved, each growing the
    // columns past their capacity, keep every column in step.
    Trace mixed("mixed", 0);
    Trace mixed_expected("mixed", 0);
    for (const Trace *part : {&a, &b, &b, &a}) {
        if (part == &b)
            mixed.appendTrace(*part);
        for (const BranchRecord &rec : part->records()) {
            if (part == &a)
                mixed.append(rec);
            mixed_expected.append(rec);
        }
    }
    expectSameImage(mixed, mixed_expected);

    // A seam between two conditionals joins their runs into one.
    Trace left, right;
    left.append({0x10, 0x20, BranchKind::Conditional, true});
    right.append({0x14, 0x20, BranchKind::Conditional, false});
    left.appendTrace(right);
    ASSERT_EQ(left.soa().conditionalSegments().size(), 1u);
    EXPECT_EQ(left.soa().conditionalSegments()[0].count, 2u);
}

TEST(TraceSoa, CopiesAndPrefixViewsShareTheColumns)
{
    Trace t = check::fuzzTrace(9, 300);
    Trace copy = t;
    EXPECT_EQ(copy.soa().pc(), t.soa().pc());
    EXPECT_EQ(copy.soa().staticIndex(), t.soa().staticIndex());

    // A prefix view is a shorter window over the same columns, with
    // its own segments and static count — equal to a trace rebuilt
    // from its records.
    for (uint64_t n : {uint64_t(0), uint64_t(1), uint64_t(50),
                       uint64_t(299)}) {
        Trace pre = t.prefix(n);
        EXPECT_EQ(pre.soa().pc(), t.soa().pc());
        EXPECT_EQ(pre.conditionalCount(), n);
        expectSameImage(pre, rebuilt(pre));
    }

    // Appending to a copy or a view detaches it; the original and the
    // other sharers never see the new record.
    std::vector<BranchRecord> before = recordsOf(t);
    Trace pre = t.prefix(50);
    size_t pre_size = pre.size();
    BranchRecord extra{0xfeed0, 0xfeed8, BranchKind::Conditional, true};
    copy.append(extra);
    pre.append(extra);
    EXPECT_NE(copy.soa().pc(), t.soa().pc());
    EXPECT_NE(pre.soa().pc(), t.soa().pc());
    EXPECT_EQ(recordsOf(t), before);
    EXPECT_EQ(copy.size(), t.size() + 1);
    EXPECT_EQ(copy[t.size()], extra);
    ASSERT_EQ(pre.size(), pre_size + 1);
    EXPECT_EQ(pre[pre_size], extra);
    EXPECT_EQ(pre.conditionalCount(), 51u);
    expectSameImage(pre, rebuilt(pre));
}

/** The v2 payload checksum: FNV-1a over 8-byte LE words, byte tail. */
uint64_t
payloadChecksum(const std::string &payload)
{
    uint64_t h = 1469598103934665603ull;
    size_t words = payload.size() / 8;
    for (size_t i = 0; i < words; ++i) {
        uint64_t w = 0;
        for (int b = 7; b >= 0; --b)
            w = (w << 8) | static_cast<uint8_t>(payload[i * 8 + b]);
        h ^= w;
        h *= 1099511628211ull;
    }
    for (size_t i = words * 8; i < payload.size(); ++i) {
        h ^= static_cast<uint8_t>(payload[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/** Overwrite the little-endian u64 at @p offset. */
void
putU64At(std::string &bytes, size_t offset, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

class MappedLoadTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::path(::testing::TempDir()) /
            ("copra-mmap-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string
    writeFile(const std::string &name, const std::string &bytes)
    {
        std::string path = (dir_ / name).string();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        return path;
    }

    /** Serialize @p t in the current (v2) binary format. */
    std::string
    v2Bytes(const Trace &t)
    {
        std::ostringstream os;
        writeBinary(t, os);
        return os.str();
    }

    /** Offset of the column payload in v2Bytes(t). */
    static size_t
    payloadOffset(const Trace &t)
    {
        return 48 + ((t.name().size() + 7) & ~size_t(7));
    }

    /** Serialize @p t in the retired v1 record-interleaved format. */
    std::string
    v1Bytes(const Trace &t)
    {
        std::string out("COPRATRC", 8);
        auto u32 = [&](uint32_t v) {
            for (int i = 0; i < 4; ++i)
                out.push_back(char((v >> (8 * i)) & 0xff));
        };
        auto u64 = [&](uint64_t v) {
            for (int i = 0; i < 8; ++i)
                out.push_back(char((v >> (8 * i)) & 0xff));
        };
        u32(1); // format version
        u64(t.seed());
        u32(static_cast<uint32_t>(t.name().size()));
        out += t.name();
        u64(t.size());
        for (const BranchRecord &rec : t.records()) {
            u64(rec.pc);
            u64(rec.target);
            out.push_back(char(static_cast<uint8_t>(rec.kind)));
            out.push_back(char(rec.taken ? 1 : 0));
        }
        return out;
    }

    /** Both loaders must reject the file at @p path. */
    static void
    expectBothLoadersReject(const std::string &path, const char *what)
    {
        EXPECT_THROW(loadBinaryMapped(path), std::runtime_error) << what;
        EXPECT_THROW(loadBinary(path), std::runtime_error) << what;
    }

    fs::path dir_;
};

TEST_F(MappedLoadTest, MapsV2FilesIdenticallyToTheStreamDecoder)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        Trace t = check::fuzzTrace(seed, 400);
        std::string path = writeFile("t.trc", v2Bytes(t));
        Trace mapped = loadBinaryMapped(path);
        Trace streamed = loadBinary(path);
        EXPECT_EQ(mapped.name(), t.name());
        EXPECT_EQ(mapped.seed(), t.seed());
        // The adopted columns carry the generated trace's indexes.
        expectSameImage(mapped, t);
        expectSameImage(streamed, t);
    }
}

TEST_F(MappedLoadTest, RejectsTruncatedGarbageAndWrongVersionFiles)
{
    Trace t = check::fuzzTrace(2, 200);
    std::string clean = v2Bytes(t);

    // Truncations at every structurally interesting point: mid-magic,
    // mid-header, mid-name, and mid-column.
    for (size_t cut : {size_t(0), size_t(4), size_t(12), size_t(39),
                       size_t(45), clean.size() - 1}) {
        std::string path =
            writeFile("cut.trc", clean.substr(0, cut));
        expectBothLoadersReject(path, "truncated");
    }

    // Trailing garbage breaks the exact-size check.
    expectBothLoadersReject(writeFile("fat.trc", clean + "xx"),
                            "trailing garbage");

    // Arbitrary garbage and a smashed magic are rejected up front.
    expectBothLoadersReject(writeFile("junk.trc", "not a trace at all"),
                            "junk");
    std::string bad_magic = clean;
    bad_magic[0] ^= 0x20;
    expectBothLoadersReject(writeFile("magic.trc", bad_magic), "magic");

    // The retired v1 format is read by neither loader.
    expectBothLoadersReject(writeFile("v1.trc", v1Bytes(t)), "v1");

    // A missing file cannot be loaded at all.
    expectBothLoadersReject((dir_ / "absent.trc").string(), "absent");
}

TEST_F(MappedLoadTest, RejectsARecordCountThatWrapsThePayloadSize)
{
    // count = 2^63 + 2: count * 18 wraps to 36, exactly the payload of
    // the two real records, so an unchecked product passes the exact
    // size check. Both loaders must refuse it cleanly.
    Trace t("wrap", 3);
    t.append({0x100, 0x180, BranchKind::Conditional, true});
    t.append({0x104, 0x200, BranchKind::Jump, true});
    std::string bytes = v2Bytes(t);
    putU64At(bytes, 24, (uint64_t(1) << 63) + 2);
    expectBothLoadersReject(writeFile("wrap.trc", bytes), "wrapped count");
    std::istringstream is(bytes);
    EXPECT_THROW(readBinary(is), std::runtime_error);
}

TEST_F(MappedLoadTest, RejectsATakenByteOfTwoUnderAValidChecksum)
{
    // A borrowed column cannot be normalized, so a taken byte other
    // than 0/1 is rejected even when the checksum vouches for it.
    Trace t("taken", 1);
    t.append({0x100, 0x180, BranchKind::Conditional, true});
    t.append({0x104, 0x090, BranchKind::Conditional, false});
    std::string bytes = v2Bytes(t);
    size_t payload = payloadOffset(t);
    size_t n = t.size();
    bytes[payload + 16 * n + n + 1] = 2; // second taken byte
    putU64At(bytes, 40, payloadChecksum(bytes.substr(payload)));
    expectBothLoadersReject(writeFile("taken.trc", bytes), "taken = 2");

    // The same file with the byte restored to 1 loads: only the byte
    // value is wrong, not the checksum patching.
    bytes[payload + 16 * n + n + 1] = 1;
    putU64At(bytes, 40, payloadChecksum(bytes.substr(payload)));
    Trace ok = loadBinaryMapped(writeFile("ok.trc", bytes));
    EXPECT_TRUE(ok[1].taken);
}

TEST_F(MappedLoadTest, BorrowedTraceOutlivesUnlinkAndReplacement)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"fuzz", 500, 11};
    Trace original = check::fuzzTrace(11, 500);
    original.setName("fuzz");
    ASSERT_TRUE(cache.store(key, original));
    std::vector<BranchRecord> want = recordsOf(original);

    std::optional<Trace> borrowed = cache.load(key);
    ASSERT_TRUE(borrowed.has_value());
    EXPECT_EQ(recordsOf(*borrowed), want);

    // store() renames a different trace over the entry: the borrowed
    // trace keeps the old inode, and a fresh load sees the new one.
    Trace other = check::fuzzTrace(12, 300);
    other.setName("fuzz");
    ASSERT_TRUE(cache.store(key, other));
    EXPECT_EQ(recordsOf(*borrowed), want);
    std::optional<Trace> fresh = cache.load(key);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(recordsOf(*fresh), recordsOf(other));

    // Unlinking the entry does not disturb either.
    fs::remove(cache.pathFor(key));
    EXPECT_EQ(recordsOf(*borrowed), want);
    EXPECT_EQ(recordsOf(*fresh), recordsOf(other));

    // A copy and a prefix view keep the mapping alive on their own.
    Trace copy = *borrowed;
    Trace view = borrowed->prefix(100);
    const uint64_t *columns = borrowed->soa().pc();
    borrowed.reset();
    EXPECT_EQ(copy.soa().pc(), columns);
    EXPECT_EQ(view.soa().pc(), columns);
    EXPECT_EQ(recordsOf(copy), want);
    ASSERT_EQ(view.conditionalCount(), 100u);
    for (size_t i = 0; i < view.size(); ++i)
        ASSERT_EQ(view[i], want[i]);
}

TEST_F(MappedLoadTest, CacheDropsAndRegeneratesUnreadableEntries)
{
    // A v1-format file renamed into a v2 cache slot, and a header whose
    // record count wraps the payload size, are both misses: the entry
    // is deleted and loadOrGenerate writes a fresh one.
    TraceCache cache(dir_.string());
    TraceCacheKey key{"legacy", 4, 7};
    Trace t("legacy", 7);
    t.append({0x100, 0x180, BranchKind::Conditional, true});
    t.append({0x104, 0x200, BranchKind::Jump, true});
    t.append({0x108, 0x090, BranchKind::Conditional, false});
    t.append({0x10c, 0x0a0, BranchKind::Conditional, true});
    std::string wrapped = v2Bytes(t);
    putU64At(wrapped, 24, (uint64_t(1) << 63) + 4);

    for (const std::string &bad : {v1Bytes(t), wrapped}) {
        std::string path = writeFile(key.fileName(), bad);
        EXPECT_FALSE(cache.load(key).has_value());
        EXPECT_FALSE(fs::exists(path)) << "bad entry must be deleted";

        writeFile(key.fileName(), bad);
        int generations = 0;
        Trace loaded = cache.loadOrGenerate(key, [&] {
            ++generations;
            return t;
        });
        EXPECT_EQ(generations, 1);
        EXPECT_EQ(recordsOf(loaded), recordsOf(t));
        std::optional<Trace> again = cache.load(key);
        ASSERT_TRUE(again.has_value()) << "regenerated entry is readable";
        EXPECT_EQ(recordsOf(*again), recordsOf(t));
    }
}

} // namespace
} // namespace copra::trace
