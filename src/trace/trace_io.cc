#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "trace/trace_soa.hpp"

namespace copra::trace {

// The v2 payload is little-endian and the loaders adopt its columns in
// place, with no per-record decode.
static_assert(std::endian::native == std::endian::little,
              "copra trace: the loaders borrow the little-endian v2 "
              "columns in place; big-endian hosts are not supported");

namespace {

constexpr char kMagic[8] = {'C', 'O', 'P', 'R', 'A', 'T', 'R', 'C'};
constexpr uint32_t kVersion = kTraceFormatVersion;

void
putU32(std::ostream &os, uint32_t v)
{
    std::array<char, 4> buf;
    for (int i = 0; i < 4; ++i)
        buf[static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf.data(), buf.size());
}

void
putU64(std::ostream &os, uint64_t v)
{
    std::array<char, 8> buf;
    for (int i = 0; i < 8; ++i)
        buf[static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf.data(), buf.size());
}

uint32_t
getU32(std::istream &is)
{
    std::array<unsigned char, 4> buf;
    is.read(reinterpret_cast<char *>(buf.data()), buf.size());
    if (!is)
        throw std::runtime_error("copra trace: truncated input (u32)");
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | buf[static_cast<size_t>(i)];
    return v;
}

uint64_t
getU64(std::istream &is)
{
    std::array<unsigned char, 8> buf;
    is.read(reinterpret_cast<char *>(buf.data()), buf.size());
    if (!is)
        throw std::runtime_error("copra trace: truncated input (u64)");
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | buf[static_cast<size_t>(i)];
    return v;
}

/** Little-endian u64 load; compiles to one mov on LE hosts. */
uint64_t
loadLe64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[static_cast<size_t>(i)];
    return v;
}

size_t
paddedNameLen(size_t name_len)
{
    return (name_len + 7) & ~size_t(7);
}

/** v2 header: everything before the name bytes (incl. checksum). */
constexpr size_t kV2HeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8;

/** v2 payload bytes per record: pc, target, kind, taken. */
constexpr uint64_t kV2RecordBytes = 8 + 8 + 1 + 1;

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/**
 * FNV-1a folded over 8-byte LE words (byte-wise tail), continuing from
 * @p h. The column layout has no per-record structure to validate — a
 * flipped pc byte decodes silently — so v2 carries an explicit payload
 * checksum; corruption detection, not adversarial tamper-proofing.
 */
uint64_t
checksumPayload(const unsigned char *p, size_t n, uint64_t h = kFnvBasis)
{
    size_t words = n / 8;
    for (size_t i = 0; i < words; ++i) {
        h ^= loadLe64(p + i * 8);
        h *= 1099511628211ull;
    }
    for (size_t i = words * 8; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** The v2 header fields after magic and version. */
struct V2Header
{
    uint32_t nameLen = 0;
    uint64_t seed = 0;
    uint64_t count = 0;
    uint64_t conditionals = 0;
    uint64_t checksum = 0;
};

void
checkNameLen(uint32_t name_len)
{
    // A malformed header must not drive allocations: cap the name at a
    // size no legitimate writer produces before trusting the field.
    if (name_len > (1u << 16))
        throw std::runtime_error("copra trace: implausible name length " +
                                 std::to_string(name_len));
}

/**
 * Require the header's record count to fill @p payload_bytes exactly.
 * The count is bounded before it is multiplied, so a crafted count
 * cannot wrap the product into a small, matching size.
 */
void
checkPayloadSize(uint64_t count, uint64_t payload_bytes)
{
    if (count > payload_bytes / kV2RecordBytes ||
        count * kV2RecordBytes != payload_bytes)
        throw std::runtime_error(
            "copra trace: size mismatch (payload is " +
            std::to_string(payload_bytes) + " bytes, header claims " +
            std::to_string(count) + " records)");
}

/**
 * The one validate-and-adopt step of both loaders: check the payload
 * checksum, adopt the columns in place (SoABlocks::borrow validates
 * every kind and taken byte and builds the indexes), and check the
 * header's conditional count. @p payload must be 8-byte aligned, hold
 * checkPayloadSize-validated bytes, and stay alive while @p keeper
 * does.
 */
Trace
adoptPayload(std::string name, const V2Header &hdr,
             const unsigned char *payload,
             std::shared_ptr<const void> keeper)
{
    auto n = static_cast<size_t>(hdr.count);
    if (checksumPayload(payload, n * kV2RecordBytes) != hdr.checksum)
        throw std::runtime_error("copra trace: payload checksum mismatch");
    const unsigned char *kind = payload + 16 * n;
    SoABlocks soa = SoABlocks::borrow(
        reinterpret_cast<const uint64_t *>(payload),
        reinterpret_cast<const uint64_t *>(payload + 8 * n), kind,
        kind + n, n, std::move(keeper));
    if (soa.conditionalCount() != hdr.conditionals)
        throw std::runtime_error(
            "copra trace: conditional count mismatch (header says " +
            std::to_string(hdr.conditionals) + ", columns hold " +
            std::to_string(soa.conditionalCount()) + ")");
    return {std::move(name), hdr.seed, std::move(soa)};
}

} // namespace

void
writeBinary(const Trace &trace, std::ostream &os)
{
    // The header carries the payload checksum, so it is computed first,
    // straight over the columns; only the two byte columns are staged
    // (the checksum's 8-byte words run across their boundary).
    const SoABlocks &soa = trace.soa();
    size_t n = soa.size();
    std::vector<unsigned char> bytes(soa.kind(), soa.kind() + n);
    bytes.insert(bytes.end(), soa.taken(), soa.taken() + n);
    auto pc = reinterpret_cast<const unsigned char *>(soa.pc());
    auto target = reinterpret_cast<const unsigned char *>(soa.target());
    uint64_t checksum = checksumPayload(
        bytes.data(), bytes.size(),
        checksumPayload(target, 8 * n, checksumPayload(pc, 8 * n)));

    os.write(kMagic, sizeof(kMagic));
    putU32(os, kVersion);
    putU32(os, static_cast<uint32_t>(trace.name().size()));
    putU64(os, trace.seed());
    putU64(os, trace.size());
    putU64(os, trace.conditionalCount());
    putU64(os, checksum);
    size_t padded = paddedNameLen(trace.name().size());
    std::string name_buf(padded, '\0');
    std::copy(trace.name().begin(), trace.name().end(), name_buf.begin());
    os.write(name_buf.data(), static_cast<std::streamsize>(padded));
    if (n != 0) {
        os.write(reinterpret_cast<const char *>(pc),
                 static_cast<std::streamsize>(8 * n));
        os.write(reinterpret_cast<const char *>(target),
                 static_cast<std::streamsize>(8 * n));
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }
}

Trace
readBinary(std::istream &is)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error("copra trace: bad magic");
    uint32_t version = getU32(is);
    if (version != kVersion)
        throw std::runtime_error("copra trace: unsupported version " +
                                 std::to_string(version));
    V2Header hdr;
    hdr.nameLen = getU32(is);
    checkNameLen(hdr.nameLen);
    hdr.seed = getU64(is);
    hdr.count = getU64(is);
    hdr.conditionals = getU64(is);
    hdr.checksum = getU64(is);

    size_t padded = paddedNameLen(hdr.nameLen);
    std::string name(padded, '\0');
    is.read(name.data(), static_cast<std::streamsize>(padded));
    if (!is)
        throw std::runtime_error("copra trace: truncated name");
    name.resize(hdr.nameLen);

    // Validate the claimed record count against the actual stream size
    // before allocating column storage for it.
    std::istream::pos_type here = is.tellg();
    is.seekg(0, std::ios::end);
    std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (here == std::istream::pos_type(-1) ||
        end == std::istream::pos_type(-1))
        throw std::runtime_error("copra trace: unseekable input");
    auto payload_bytes = static_cast<uint64_t>(end - here);
    checkPayloadSize(hdr.count, payload_bytes);

    // One owned buffer of whole words, so the u64 columns are aligned
    // exactly as in a mapped file.
    auto buffer = std::make_shared_for_overwrite<uint64_t[]>(
        static_cast<size_t>((payload_bytes + 7) / 8));
    auto payload = reinterpret_cast<unsigned char *>(buffer.get());
    if (payload_bytes != 0) {
        is.read(reinterpret_cast<char *>(payload),
                static_cast<std::streamsize>(payload_bytes));
        if (!is)
            throw std::runtime_error("copra trace: truncated columns");
    }
    return adoptPayload(std::move(name), hdr, payload, std::move(buffer));
}

void
saveBinary(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("copra trace: cannot open for write: " +
                                 path);
    writeBinary(trace, os);
    if (!os)
        throw std::runtime_error("copra trace: write failed: " + path);
}

Trace
loadBinary(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("copra trace: cannot open for read: " +
                                 path);
    return readBinary(is);
}

#ifndef _WIN32

Trace
loadBinaryMapped(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw std::runtime_error("copra trace: cannot open for read: " +
                                 path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw std::runtime_error("copra trace: cannot stat: " + path);
    }
    size_t file_size = static_cast<size_t>(st.st_size);
    if (file_size < kV2HeaderBytes) {
        ::close(fd);
        throw std::runtime_error("copra trace: truncated header");
    }
    void *map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        throw std::runtime_error("copra trace: mmap failed: " + path);

    // The mapping is the columns' keeper: it is unmapped when the last
    // trace, copy or view borrowing it goes away, or right here when
    // validation throws.
    std::shared_ptr<const void> keeper(
        map, [file_size](const void *addr) {
            ::munmap(const_cast<void *>(addr), file_size);
        });

    const unsigned char *base = static_cast<const unsigned char *>(map);
    if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error("copra trace: bad magic");
    uint32_t version = static_cast<uint32_t>(loadLe64(base + 8) & 0xffffffff);
    if (version != kVersion)
        throw std::runtime_error("copra trace: unsupported version " +
                                 std::to_string(version));
    V2Header hdr;
    hdr.nameLen = static_cast<uint32_t>(loadLe64(base + 8) >> 32);
    checkNameLen(hdr.nameLen);
    hdr.seed = loadLe64(base + 16);
    hdr.count = loadLe64(base + 24);
    hdr.conditionals = loadLe64(base + 32);
    hdr.checksum = loadLe64(base + 40);

    size_t header = kV2HeaderBytes + paddedNameLen(hdr.nameLen);
    if (file_size < header)
        throw std::runtime_error("copra trace: truncated name");
    checkPayloadSize(hdr.count, file_size - header);
    std::string name(reinterpret_cast<const char *>(base) + kV2HeaderBytes,
                     hdr.nameLen);
    return adoptPayload(std::move(name), hdr, base + header,
                        std::move(keeper));
}

#else // _WIN32

Trace
loadBinaryMapped(const std::string &path)
{
    // No mmap on this platform: same validation, owned buffer.
    return loadBinary(path);
}

#endif

void
writeText(const Trace &trace, std::ostream &os)
{
    os << "# name " << trace.name() << '\n';
    os << "# seed " << trace.seed() << '\n';
    for (const auto &rec : trace.records()) {
        os << branchKindName(rec.kind) << ' ' << std::hex << "0x" << rec.pc
           << " 0x" << rec.target << std::dec << ' '
           << (rec.taken ? 'T' : 'N') << '\n';
    }
}

Trace
readText(std::istream &is)
{
    Trace trace;
    std::string line;
    size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream hdr(line.substr(1));
            std::string key;
            hdr >> key;
            if (key == "name") {
                std::string name;
                hdr >> name;
                trace.setName(name);
            } else if (key == "seed") {
                uint64_t seed = 0;
                hdr >> seed;
                trace.setSeed(seed);
            }
            continue;
        }
        std::istringstream ls(line);
        std::string kind_str, pc_str, target_str, taken_str;
        if (!(ls >> kind_str >> pc_str >> target_str >> taken_str))
            throw std::runtime_error("copra trace: malformed text line " +
                                     std::to_string(line_no));
        BranchRecord rec;
        if (kind_str == "cond")
            rec.kind = BranchKind::Conditional;
        else if (kind_str == "jump")
            rec.kind = BranchKind::Jump;
        else if (kind_str == "call")
            rec.kind = BranchKind::Call;
        else if (kind_str == "ret")
            rec.kind = BranchKind::Return;
        else
            throw std::runtime_error("copra trace: unknown kind '" +
                                     kind_str + "' on line " +
                                     std::to_string(line_no));
        rec.pc = std::stoull(pc_str, nullptr, 0);
        rec.target = std::stoull(target_str, nullptr, 0);
        if (taken_str == "T")
            rec.taken = true;
        else if (taken_str == "N")
            rec.taken = false;
        else
            throw std::runtime_error("copra trace: bad outcome on line " +
                                     std::to_string(line_no));
        trace.append(rec);
    }
    return trace;
}

} // namespace copra::trace
