/**
 * @file
 * The predictor state contract: byte-stable serialization primitives
 * and the per-class field-taxonomy declarations the copra_lint sema
 * pass cross-checks against the parsed member list (DESIGN.md §14).
 *
 * Every roster predictor declares each member field in exactly one of
 * three lists — COPRA_STATE_FIELDS (adaptive state, serialized),
 * COPRA_CONFIG_FIELDS (immutable after construction), or
 * COPRA_TRANSIENT_FIELDS (scratch/telemetry that must never influence
 * predictions) — and implements stateBits()/snapshotState()/
 * restoreState() against the Writer/Reader below. The encoding is
 * explicit little-endian bytes, so snapshots hash identically across
 * platforms, and unordered containers are serialized in sorted key
 * order so snapshots never depend on hash-table iteration order.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/logging.hpp"

namespace copra::predictor::state {

/** Append-only byte stream collecting one predictor snapshot. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    void i16(int16_t v) { u16(static_cast<uint16_t>(v)); }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    const std::vector<uint8_t> &bytes() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Cursor over snapshot bytes; overruns panic (a truncated snapshot
 *  is a copra bug, never a recoverable condition). */
class Reader
{
  public:
    explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

    uint8_t
    u8()
    {
        panicIf(pos_ >= bytes_.size(),
                "state::Reader: read past the end of a snapshot");
        return bytes_[pos_++];
    }

    uint16_t
    u16()
    {
        uint16_t lo = u8();
        return static_cast<uint16_t>(lo | (uint16_t(u8()) << 8));
    }

    uint32_t
    u32()
    {
        uint32_t lo = u16();
        return lo | (uint32_t(u16()) << 16);
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32();
        return lo | (uint64_t(u32()) << 32);
    }

    int16_t i16() { return static_cast<int16_t>(u16()); }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    bool b() { return u8() != 0; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return bytes_.size() - pos_; }

  private:
    std::span<const uint8_t> bytes_;
    size_t pos_ = 0;
};

/** FNV-1a over snapshot bytes: the predictor stateHash(). */
inline uint64_t
fnv1a(std::span<const uint8_t> bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (uint8_t byte : bytes) {
        h ^= byte;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Serialize a fixed-geometry table: the size prefix is a tripwire the
 * restore side checks, because restoring a snapshot into a predictor
 * of a different geometry is a caller bug.
 */
template <typename T, typename Fn>
void
writeSpan(Writer &w, std::span<const T> table, Fn &&item)
{
    w.u64(table.size());
    for (const T &x : table)
        item(w, x);
}

template <typename T, typename Fn>
void
readSpan(Reader &r, std::span<T> table, Fn &&item)
{
    uint64_t n = r.u64();
    panicIf(n != table.size(),
            "state restore: table geometry mismatch (snapshot has " +
                std::to_string(n) + " entries, predictor has " +
                std::to_string(table.size()) + ")");
    for (T &x : table)
        item(r, x);
}

/** writeSpan() over a whole vector. */
template <typename T, typename Fn>
void
writeVec(Writer &w, const std::vector<T> &vec, Fn &&item)
{
    writeSpan(w, std::span<const T>(vec), item);
}

/** readSpan() into a whole vector. */
template <typename T, typename Fn>
void
readVec(Reader &r, std::vector<T> &vec, Fn &&item)
{
    readSpan(r, std::span<T>(vec), item);
}

/**
 * Serialize an unordered map with integral keys in sorted key order.
 * Sorting is the whole point: two predictors holding equal state must
 * produce byte-identical snapshots regardless of hash-table history,
 * or stateHash() comparisons would be meaningless.
 */
template <typename Map, typename Fn>
void
writeMap(Writer &w, const Map &map, Fn &&value)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(map.size());
    for (const auto &kv : map)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (const auto &k : keys) {
        w.u64(static_cast<uint64_t>(k));
        value(w, map.at(k));
    }
}

template <typename Map, typename Fn>
void
readMap(Reader &r, Map &map, Fn &&value)
{
    map.clear();
    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n; ++i) {
        auto key = static_cast<typename Map::key_type>(r.u64());
        value(r, map[key]);
    }
}

} // namespace copra::predictor::state

/**
 * Field-taxonomy declarations. Each expands to a constexpr character
 * array holding the stringized field list, which gives the sema pass a
 * lexically visible declaration to cross-check against the parsed
 * member list and gives contracts.hpp a compile-time detection hook.
 */
#define COPRA_STATE_FIELDS(...)                                           \
    static constexpr const char kCopraStateFields[] = "" #__VA_ARGS__
#define COPRA_CONFIG_FIELDS(...)                                          \
    static constexpr const char kCopraConfigFields[] = "" #__VA_ARGS__
#define COPRA_TRANSIENT_FIELDS(...)                                       \
    static constexpr const char kCopraTransientFields[] = "" #__VA_ARGS__
