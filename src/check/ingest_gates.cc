#include "check/ingest_gates.hpp"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/fuzz.hpp"
#include "trace/ingest.hpp"
#include "trace/trace_io.hpp"

namespace copra::check {

using trace::BranchKind;
using trace::BranchRecord;
using trace::Trace;

namespace {

/** Temp path for the emitted v2 file; pid-qualified so concurrent
 * ctest invocations do not fight over one name. */
std::string
gateTempPath()
{
    std::filesystem::path dir = std::filesystem::temp_directory_path();
    return (dir / ("copra-ingest-gate-" + std::to_string(getpid()) +
                   ".trc"))
        .string();
}

/** Byte-compare every SoA column plus identity metadata. */
bool
soaIdentical(const Trace &a, const Trace &b, std::string &detail)
{
    if (a.name() != b.name()) {
        detail = "name mismatch: '" + a.name() + "' vs '" + b.name() +
            "'";
        return false;
    }
    if (a.seed() != b.seed()) {
        detail = "seed mismatch";
        return false;
    }
    const trace::SoABlocks &sa = a.soa();
    const trace::SoABlocks &sb = b.soa();
    if (sa.size() != sb.size() ||
        sa.conditionalCount() != sb.conditionalCount()) {
        detail = "size mismatch";
        return false;
    }
    size_t n = sa.size();
    if (std::memcmp(sa.pc(), sb.pc(), n * sizeof(uint64_t)) != 0) {
        detail = "pc column differs";
        return false;
    }
    if (std::memcmp(sa.target(), sb.target(), n * sizeof(uint64_t)) !=
        0) {
        detail = "target column differs";
        return false;
    }
    if (std::memcmp(sa.kind(), sb.kind(), n) != 0) {
        detail = "kind column differs";
        return false;
    }
    if (std::memcmp(sa.taken(), sb.taken(), n) != 0) {
        detail = "taken column differs";
        return false;
    }
    return true;
}

/** Render @p t in the native text grammar (with version directive). */
std::string
renderText(const Trace &t)
{
    std::ostringstream os;
    os << "# copra-branch-trace v1\n";
    trace::writeText(t, os);
    return os.str();
}

/** Render @p t as CSV with an explicit in-order index column. */
std::string
renderCsv(const Trace &t)
{
    std::ostringstream os;
    os << "index,kind,pc,target,taken\n";
    uint64_t index = 0;
    for (const BranchRecord &rec : t.records()) {
        os << index++ << ',' << trace::branchKindName(rec.kind) << ','
           << "0x" << std::hex << rec.pc << ",0x" << rec.target
           << std::dec << ',' << (rec.taken ? 'T' : 'N') << '\n';
    }
    return os.str();
}

bool
recordsEqual(const Trace &a, const Trace &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!(a[i] == b[i]))
            return false;
    return true;
}

/** A loaded-without-throwing corrupt trace must still be structurally
 * valid: every kind decodes, every taken byte is 0/1, and the
 * conditional count matches the kind column. */
bool
structurallyValid(const Trace &t, std::string &detail)
{
    const trace::SoABlocks &soa = t.soa();
    uint64_t conditionals = 0;
    for (size_t i = 0; i < soa.size(); ++i) {
        if (soa.kind()[i] > 3) {
            detail = "invalid kind escaped validation";
            return false;
        }
        if (soa.taken()[i] > 1) {
            detail = "taken byte other than 0/1 escaped validation";
            return false;
        }
        if (soa.kind()[i] == 0)
            ++conditionals;
    }
    if (conditionals != t.conditionalCount()) {
        detail = "conditional count out of sync with records";
        return false;
    }
    return true;
}

} // namespace

IngestGateReport
runIngestGates(const IngestGateOptions &options)
{
    IngestGateReport report;
    auto fail = [&](const std::string &gate, uint64_t seed,
                    const std::string &detail) {
        report.failures.push_back({gate, seed, detail});
    };

    // Gate 1: the committed sample ingests, with conditionals to
    // predict and idempotent normalization (re-ingesting our own
    // rendering coerces nothing).
    Trace ingested;
    trace::IngestReport ingest_report;
    ++report.gatesRun;
    try {
        trace::IngestOptions opts;
        ingested =
            trace::ingestFile(options.samplePath, opts, ingest_report);
        if (ingested.empty())
            fail("reference-ingest", 0, "sample has no records");
        else if (ingested.conditionalCount() == 0)
            fail("reference-ingest", 0,
                 "sample has no conditional branches");
    } catch (const std::exception &e) {
        fail("reference-ingest", 0, e.what());
        return report; // everything downstream needs the sample
    }

    // Gate 2: v2 emit, then stream-decode vs mmap-adopt identity.
    std::string temp = gateTempPath();
    ++report.gatesRun;
    try {
        trace::saveBinary(ingested, temp);
        Trace streamed = trace::loadBinary(temp);
        Trace mapped = trace::loadBinaryMapped(temp);
        std::string detail;
        if (!soaIdentical(streamed, mapped, detail))
            fail("stream-mmap-identity", 0, detail);
        if (!soaIdentical(ingested, mapped, detail))
            fail("stream-mmap-identity", 0,
                 "mmap load differs from ingested trace: " + detail);

        // Gate 3: record-for-record round trip out of the v2 file.
        ++report.gatesRun;
        if (!recordsEqual(ingested, streamed))
            fail("round-trip", 0,
                 "v2 records differ from ingested records");
    } catch (const std::exception &e) {
        fail("stream-mmap-identity", 0, e.what());
    }
    std::error_code ec;
    std::filesystem::remove(temp, ec);

    // Gate 4: the text and CSV grammars reproduce the same records.
    ++report.gatesRun;
    try {
        trace::IngestOptions opts;
        opts.name = ingested.name();
        trace::IngestReport r2;
        std::istringstream text_in(renderText(ingested));
        Trace from_text = trace::ingestStream(text_in, opts, r2);
        if (!recordsEqual(ingested, from_text))
            fail("cross-format", 0, "text re-ingest differs");
        if (r2.normalizedTaken != 0)
            fail("cross-format", 0,
                 "normalization not idempotent over text");
        std::istringstream csv_in(renderCsv(ingested));
        Trace from_csv = trace::ingestStream(csv_in, opts, r2);
        if (!recordsEqual(ingested, from_csv))
            fail("cross-format", 0, "CSV re-ingest differs");
    } catch (const std::exception &e) {
        fail("cross-format", 0, e.what());
    }

    // Gate 5: corruption fuzz over the serialized v2 bytes and the
    // text rendering — loaders must throw or produce a valid trace.
    std::string v2_bytes;
    {
        std::ostringstream os;
        trace::writeBinary(ingested, os);
        v2_bytes = os.str();
    }
    std::string text_bytes = renderText(ingested);
    for (uint64_t s = options.seedBase;
         s < options.seedBase + options.corruptionSeeds; ++s) {
        ++report.gatesRun;
        std::string corrupted = corruptBytes(v2_bytes, s);
        try {
            std::istringstream in(corrupted);
            Trace t = trace::readBinary(in);
            std::string detail;
            if (!structurallyValid(t, detail))
                fail("corruption-fuzz", s, "binary: " + detail);
        } catch (const std::exception &) {
            // Rejecting corrupt input is the expected outcome.
        }
        ++report.gatesRun;
        std::string corrupted_text = corruptBytes(text_bytes, s);
        try {
            trace::IngestOptions opts;
            opts.format = trace::IngestFormat::Text;
            trace::IngestReport r3;
            std::istringstream in(corrupted_text);
            Trace t = trace::ingestStream(in, opts, r3);
            std::string detail;
            if (!structurallyValid(t, detail))
                fail("corruption-fuzz", s, "text: " + detail);
        } catch (const std::exception &) {
        }
    }
    return report;
}

std::string
formatIngestGateReport(const IngestGateReport &report)
{
    std::ostringstream os;
    os << "ingest gates: " << report.gatesRun << " checks, "
       << report.failures.size() << " failure(s)\n";
    for (const IngestGateFailure &f : report.failures) {
        os << "  FAIL [" << f.gate << "]";
        if (f.seed != 0)
            os << " seed=" << f.seed;
        os << ": " << f.detail << "\n";
    }
    return os.str();
}

} // namespace copra::check
