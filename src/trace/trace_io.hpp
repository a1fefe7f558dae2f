/**
 * @file
 * Trace serialization: a versioned binary format for bulk storage and a
 * line-oriented text format for inspection and hand-written test inputs.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace copra::trace {

/**
 * Version of the binary trace format written by writeBinary. Bump on any
 * layout change; the on-disk trace cache keys its entries on this value,
 * so stale cache files are never misread. Only this version is read: a
 * file of any other version is rejected (the cache drops and
 * regenerates it).
 */
inline constexpr uint32_t kTraceFormatVersion = 2;

/**
 * Write @p trace to @p os in the copra binary trace format (v2).
 *
 * v2 is column-major so loaders can ingest whole fields at once:
 * 8-byte magic "COPRATRC", u32 version, u32 name length, u64 seed,
 * u64 record count, u64 conditional count, u64 payload checksum
 * (FNV-1a over the column bytes — the column layout has no per-record
 * structure to validate, so integrity is explicit), name bytes
 * zero-padded to an 8-byte boundary, then four contiguous columns —
 * pc (count × u64), target (count × u64), kind (count × u8), taken
 * (count × u8). All integers are little-endian. The header and the
 * padded name are whole 8-byte words, so the u64 columns of a file
 * mapped at a page boundary are 8-byte aligned and are adopted in place.
 */
void writeBinary(const Trace &trace, std::ostream &os);

/**
 * Read a v2 trace into one owned, 8-byte-aligned buffer and adopt its
 * columns through the same validation as loadBinaryMapped: exact
 * payload size, checksum, kind and taken bytes, conditional count.
 *
 * @throws std::runtime_error on bad magic, unsupported version,
 * truncated or inconsistent input.
 */
Trace readBinary(std::istream &is);

/** Write @p trace to the file at @p path in binary format. */
void saveBinary(const Trace &trace, const std::string &path);

/** Load a binary-format trace from the file at @p path. */
Trace loadBinary(const std::string &path);

/**
 * Load a v2 binary trace by memory-mapping @p path: the header is
 * validated against the exact file size and the payload checksum, and
 * the trace borrows its columns from the mapping — no column is copied
 * and no per-record decode runs. The mapping lives as long as the
 * trace or any copy or prefix view of it. Unlinking the file, or
 * renaming another over it, is safe meanwhile; truncating it in place
 * is not (reads past the new end fault).
 *
 * @throws std::runtime_error when the file cannot be mapped, is not a
 * v2 trace, or is truncated / inconsistent.
 */
Trace loadBinaryMapped(const std::string &path);

/**
 * Write @p trace as text: a "# name <name>" / "# seed <seed>" header, then
 * one "<kind> <pc-hex> <target-hex> <T|N>" line per record.
 */
void writeText(const Trace &trace, std::ostream &os);

/**
 * Read a text-format trace. Blank lines and lines starting with '#'
 * (other than the recognized header directives) are ignored.
 *
 * @throws std::runtime_error on malformed lines.
 */
Trace readText(std::istream &is);

} // namespace copra::trace
