/**
 * @file
 * copra_perfbench: the measuring half of the benchmark (run.py is the
 * orchestrating half). Three modes, each printing one JSON object:
 *
 *   setup  --workload W --seed N --reps R --seconds S --cache-root DIR
 *          [--trace] [--spans F]
 *       Build every trace of W into an empty cache directory, at least
 *       R times and until S seconds have passed (generation + cache
 *       store), and keep the last directory.
 *   steady --workload W --seed N --seconds S [--trace] [--spans F]
 *          [--reference F] [--plant tally|digest]
 *       Repeat W's pipeline over the cache named by $COPRA_CACHE_DIR
 *       for S seconds, checking every repetition's products after it
 *       is timed. With --trace, odd repetitions record spans and obs
 *       counters and even ones do not, so one run gives both the layer
 *       spans and the tracing overhead.
 *   probe  --seconds S
 *       Single-thread loop rate of a small table-update kernel, for
 *       host calibration.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "pipeline.hpp"
#include "trace/trace_cache.hpp"
#include "util/thread_pool.hpp"
#include "workload/profiles.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
namespace sim = copra::sim;

namespace {

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string mode;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    int reps = 3;
    bool trace = false;
    std::string spans;
    std::string cacheRoot;
    std::string reference;
    std::string plant;
};

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "copra_perfbench: %s\n", message.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die("usage: copra_perfbench setup|steady|probe [options]");
    Options o;
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string key = argv[i];
        if (key == "--trace") {
            o.trace = true;
            continue;
        }
        if (i + 1 >= argc)
            die("missing value for " + key);
        std::string value = argv[++i];
        try {
            if (key == "--workload")
                o.workload = value;
            else if (key == "--seed")
                o.seed = std::stoull(value);
            else if (key == "--seconds")
                o.seconds = std::stod(value);
            else if (key == "--reps")
                o.reps = std::stoi(value);
            else if (key == "--spans")
                o.spans = value;
            else if (key == "--cache-root")
                o.cacheRoot = value;
            else if (key == "--reference")
                o.reference = value;
            else if (key == "--plant")
                o.plant = value;
            else
                die("unknown option " + key);
        } catch (const std::logic_error &) {
            die("bad value '" + value + "' for " + key);
        }
    }
    if (o.plant != "" && o.plant != "tally" && o.plant != "digest")
        die("--plant takes tally or digest");
    return o;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
num(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

template <typename T, typename F>
std::string
jsonList(const std::vector<T> &items, F &&render)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + render(items[i]);
    return out + "]";
}

double
seconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/** User plus system CPU seconds of this process, all threads. */
double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto tv = [](const timeval &t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

unsigned
availableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

/** Pool size of @p w: one worker, or min(nproc, 4) when fanned out. */
unsigned
threadsFor(const Workload &w)
{
    return w.parallel ? std::min(4u, availableCpus()) : 1u;
}

/**
 * Pins a serial workload to a different allowed CPU on each repetition.
 * On a shared host each CPU's speed drifts with what its neighbours
 * run; a serial run left on one CPU inherits that CPU's speed for its
 * whole length, while rotating samples every CPU, so the medians of
 * separate runs agree far better. Inactive for the parallel workload.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(bool active)
    {
        if (active && sched_getaffinity(0, sizeof(original_), &original_) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &original_))
                    cpus_.push_back(cpu);
    }
    ~CpuRotation() { release(); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread to the @p slot-th allowed CPU (mod count). */
    void
    pin(size_t slot)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[slot % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    /** Restore the affinity the process started with. */
    void
    release()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(original_), &original_);
        cpus_.clear();
    }

  private:
    cpu_set_t original_{};
    std::vector<int> cpus_;
};

std::string
simdLevel()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
    if (__builtin_cpu_supports("sse4.2"))
        return "sse4.2";
    return "baseline";
#elif defined(__aarch64__)
    return "neon";
#else
    return "baseline";
#endif
}

std::string
checksJson(const CheckTally &tally)
{
    return "\"attempted\": " + std::to_string(tally.attempted) +
        ", \"failed\": " + std::to_string(tally.failed) +
        ", \"failures\": " + jsonList(tally.failures, quote);
}

void
writeSpans(const std::string &path, const SpanRecorder &rec)
{
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : rec.spans())
        out << "{\"name\": " << quote(s.name) << ", \"start\": "
            << num(s.start) << ", \"end\": " << num(s.end)
            << ", \"parent\": " << s.parent << ", \"member\": " << s.member
            << "}\n";
    if (!out)
        die("cannot write spans to " + path);
}

Workload
workloadOrDie(const Options &o)
{
    std::optional<Workload> w = findWorkload(o.workload);
    if (!w)
        die("unknown workload '" + o.workload + "'");
    return *w;
}

int
runSetup(const Options &o)
{
    const Workload w = workloadOrDie(o);
    if (o.cacheRoot.empty() || o.reps < 1)
        die("setup needs --cache-root and --reps >= 1");
    copra::setGlobalPoolThreads(threadsFor(w));
    const size_t n = w.members.size();

    SpanRecorder rec;
    rec.setEnabled(o.trace);
    CheckTally tally;
    std::vector<double> walls;
    uint64_t storeBytes = 0;
    uint64_t records = 0;
    std::string dir;
    CpuRotation rotation(threadsFor(w) == 1);
    const Clock::time_point begin = Clock::now();
    for (int rep = 0; rep < 100 && (rep < o.reps || seconds(begin) < o.seconds);
         ++rep) {
        rotation.pin(static_cast<size_t>(rep));
        std::string previous = dir;
        dir = o.cacheRoot + "/rep" + std::to_string(rep);
        fs::remove_all(dir);
        fs::create_directories(dir);
        if (!previous.empty())
            fs::remove_all(previous);
        copra::trace::TraceCache cache(dir);
        std::vector<uint64_t> conditionals(n), sizes(n);
        std::vector<char> stored(n, 0);

        Clock::time_point start = Clock::now();
        int root = rec.open("setup", -1, -1);
        copra::parallelFor(copra::globalPool(), n, [&](size_t i) {
            const int id = static_cast<int>(i);
            Scope member(rec, "member", root, id);
            copra::trace::Trace trace;
            {
                Scope s(rec, "workload.generate", member.id(), id);
                trace = copra::workload::makeBenchmarkTrace(
                    w.members[i], w.branches, o.seed);
            }
            {
                Scope s(rec, "trace.store", member.id(), id);
                stored[i] = cache.store({w.members[i], w.branches, o.seed},
                                        trace);
            }
            conditionals[i] = trace.conditionalCount();
            sizes[i] = trace.size();
        });
        rec.close(root);
        walls.push_back(seconds(start));

        storeBytes = 0;
        records = 0;
        for (size_t i = 0; i < n; ++i) {
            tally.expect(stored[i] && conditionals[i] == w.branches,
                         w.members[i] + ": trace not stored or has " +
                             std::to_string(conditionals[i]) +
                             " conditional branches");
            records += sizes[i];
            std::string path =
                cache.pathFor({w.members[i], w.branches, o.seed});
            std::error_code ec;
            storeBytes += fs::file_size(path, ec);
            // Flush now so write-back does not land in the steady pass.
            int fd = ::open(path.c_str(), O_RDONLY);
            if (fd >= 0) {
                ::fsync(fd);
                ::close(fd);
            }
        }
    }
    writeSpans(o.spans, rec);
    std::printf("{\"setup_s\": %s, \"cache_dir\": %s, \"store_bytes\": %llu, "
                "\"records\": %llu, %s}\n",
                jsonList(walls, num).c_str(), quote(dir).c_str(),
                static_cast<unsigned long long>(storeBytes),
                static_cast<unsigned long long>(records),
                checksJson(tally).c_str());
    return 0;
}

/** "workload member" -> digest, from a reference file of such lines. */
std::map<std::string, std::string>
loadReferences(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read reference digests " + path);
    std::map<std::string, std::string> refs;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string workload, member, hex;
        if (line.empty() || line[0] == '#' ||
            !(fields >> workload >> member >> hex))
            continue;
        refs[workload + " " + member] = hex;
    }
    return refs;
}

/** Current value of the obs counter called @p key, or -1 if absent. */
double
counterValue(const copra::obs::Snapshot &snap, const std::string &key)
{
    const auto &catalog = copra::obs::instrumentCatalog();
    for (size_t i = 0; i < catalog.size(); ++i)
        if (key == catalog[i].key && i < snap.values.size())
            return static_cast<double>(snap.values[i].scalar);
    return -1.0;
}

struct Rep
{
    double wall = 0.0;
    double cpu = 0.0;
    bool traced = false;
    double loadRssMb = 0.0;
};

int
runSteady(const Options &o)
{
    const Workload w = workloadOrDie(o);
    const unsigned threads = threadsFor(w);
    copra::setGlobalPoolThreads(threads);
    copra::trace::setTraceCacheEnabled(true);
    const copra::core::ExperimentConfig config = configFor(w, o.seed);
    const size_t n = w.members.size();

    std::map<std::string, std::string> refs;
    const bool checkDigests = o.seed == 0 && !o.reference.empty();
    if (checkDigests)
        refs = loadReferences(o.reference);

    SpanRecorder rec;
    CheckTally tally;
    std::vector<Rep> reps;
    std::vector<MemberResult> last;
    const int minReps = o.trace ? 4 : 3;
    CpuRotation rotation(threads == 1);
    const Clock::time_point begin = Clock::now();
    for (int rep = 0; rep < 500; ++rep) {
        const bool traced = o.trace && rep % 2 == 1;
        // A traced repetition runs on the CPU of the untraced one before
        // it, so the tracing overhead is not confounded with CPU speed.
        rotation.pin(static_cast<size_t>(o.trace ? rep / 2 : rep));
        rec.setEnabled(traced);
        copra::obs::setEnabled(traced);

        std::vector<MemberResult> results(n);
        const double cpu0 = processCpuSeconds();
        const Clock::time_point start = Clock::now();
        int root = rec.open("pass", -1, -1);
        copra::parallelFor(copra::globalPool(), n, [&](size_t i) {
            results[i] = runMember(w, config, i, rec, root);
        });
        rec.close(root);
        Rep timing{seconds(start), processCpuSeconds() - cpu0, traced};
        copra::obs::setEnabled(false);
        rec.setEnabled(false);

        // Everything below is outside the timed region.
        for (const MemberResult &m : results)
            timing.loadRssMb = std::max(timing.loadRssMb, m.loadRssMb);
        reps.push_back(timing);
        if (o.plant == "tally") {
            // A wrong answer the checks must catch: one extra correct
            // prediction credited to one branch of the first pass.
            sim::Ledger &ledger = results[0].runs[0].ledger;
            uint64_t pc = ledger.table().begin()->first;
            ledger.addTally(pc, sim::BranchTally{0, 1, 0});
        }
        for (size_t i = 0; i < n; ++i) {
            checkInvariants(w, results[i], tally);
            if (!checkDigests)
                continue;
            std::string expected = refs[w.name + " " + w.members[i]];
            if (o.plant == "digest" && i == 0)
                expected = "planted-wrong-digest";
            tally.expect(digest(w, results[i]) == expected,
                         w.members[i] + ": digest differs from the "
                                        "reference recorded at seed 0");
        }
        last = std::move(results);
        if (rep + 1 >= minReps && seconds(begin) >= o.seconds)
            break;
    }
    rotation.release();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peakRssMb = usage.ru_maxrss / 1024.0;

    // Two members, chosen by seed, replayed through the scalar predictor
    // interface (the canonical seed is digest-checked instead).
    if (o.seed != 0)
        for (size_t k = 0; k < 2; ++k) {
            size_t i = (o.seed + k * (n / 2 + 1)) % n;
            copra::trace::Trace trace =
                copra::core::makeExperimentTrace(w.members[i], config);
            checkScalarReplay(w, last[i], trace, tally);
        }

    uint64_t conditionals = 0;
    uint64_t loadBytes = 0;
    for (size_t i = 0; i < n; ++i) {
        conditionals += last[i].conditionals;
        std::error_code ec;
        loadBytes += fs::file_size(
            copra::trace::globalTraceCache().pathFor(
                {w.members[i], w.branches, o.seed}),
            ec);
    }

    std::ostringstream specs;
    for (size_t s = 0; s < w.specs.size(); ++s) {
        uint64_t branches = 0, correct = 0;
        for (const MemberResult &m : last) {
            branches += m.runs[s].result.dynamicBranches;
            correct += m.runs[s].result.correct;
        }
        specs << (s ? ", " : "") << quote(w.specs[s].label)
              << ": {\"branches\": " << branches
              << ", \"mispredicts\": " << branches - correct
              << ", \"state_bits\": " << last[0].runs[s].stateBits << "}";
    }

    std::ostringstream members;
    for (size_t i = 0; i < n; ++i) {
        const MemberResult &m = last[i];
        members << (i ? ", " : "") << "{\"name\": " << quote(m.name)
                << ", \"digest\": " << quote(digest(w, m))
                << ", \"accuracy\": {";
        for (size_t s = 0; s < w.specs.size(); ++s)
            members << (s ? ", " : "") << quote(w.specs[s].label) << ": "
                    << num(m.runs[s].result.accuracyPercent());
        members << "}, \"split\": [" << num(m.split.fracA) << ", "
                << num(m.split.fracB) << ", " << num(m.split.fracStatic)
                << "]";
        if (w.pipeline == Pipeline::Oracle) {
            double execs = static_cast<double>(m.oracleExecs);
            members << ", \"sel\": [" << num(100.0 * m.selCorrect[0] / execs)
                    << ", " << num(100.0 * m.selCorrect[1] / execs) << ", "
                    << num(100.0 * m.selCorrect[2] / execs) << "]";
        }
        members << "}";
    }

    const copra::obs::Snapshot snap =
        copra::obs::Registry::instance().snapshot();
    std::ostringstream counters;
    const char *keys[] = {"trace.cache.hit", "trace.cache.mmap_hit",
                          "trace.cache.miss"};
    for (size_t k = 0; k < std::size(keys); ++k) {
        double value = counterValue(snap, keys[k]);
        counters << (k ? ", " : "") << quote(keys[k]) << ": "
                 << (value < 0 ? std::string("null") : num(value));
    }

    writeSpans(o.spans, rec);
    std::printf(
        "{\"workload\": %s, \"threads\": %u, \"reps\": %s, "
        "\"conditionals\": %llu, \"load_bytes\": %llu, "
        "\"peak_rss_mb\": %s, \"specs\": {%s}, \"members\": [%s], "
        "\"counters\": {%s}, %s}\n",
        quote(w.name).c_str(), threads,
        jsonList(reps,
                 [](const Rep &r) {
                     return "{\"wall_s\": " + num(r.wall) + ", \"cpu_s\": " +
                         num(r.cpu) + ", \"traced\": " +
                         (r.traced ? "true" : "false") +
                         ", \"load_rss_mb\": " + num(r.loadRssMb) + "}";
                 })
            .c_str(),
        static_cast<unsigned long long>(conditionals),
        static_cast<unsigned long long>(loadBytes), num(peakRssMb).c_str(),
        specs.str().c_str(), members.str().c_str(), counters.str().c_str(),
        checksJson(tally).c_str());
    return 0;
}

int
runProbe(const Options &o)
{
    // A table-predictor-like loop: hashed index into a 64 KiB table of
    // 2-bit counters, a data-dependent branch, a counter update. Unlike
    // a dependent ALU chain it slows when a co-tenant shares the core.
    std::vector<uint8_t> table(1 << 16, 1);
    const Clock::time_point start = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    uint64_t iterations = 0;
    uint64_t hits = 0;
    double elapsed = 0.0;
    do {
        for (int i = 0; i < 65536; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            uint8_t &counter = table[(x >> 20) & 0xffff];
            bool taken = (x >> 40) & 1;
            if ((counter >= 2) == taken)
                ++hits;
            counter = taken ? (counter < 3 ? counter + 1 : 3)
                            : (counter > 0 ? counter - 1 : 0);
        }
        iterations += 65536;
        elapsed = seconds(start);
    } while (elapsed < o.seconds);
    std::printf("{\"loop_rate\": %s, \"simd\": %s, \"nproc\": %u, "
                "\"sink\": %llu}\n",
                num(iterations / elapsed).c_str(), quote(simdLevel()).c_str(),
                availableCpus(), static_cast<unsigned long long>(hits & 1));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    // Fixed mmap threshold: large buffers (traces, columns) are mapped
    // fresh and returned on free, as in a one-shot harness run, instead
    // of being recycled through a heap whose layout, and so whose peak
    // resident size, varies with the order of earlier allocations.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    if (o.mode == "setup")
        return runSetup(o);
    if (o.mode == "steady")
        return runSteady(o);
    if (o.mode == "probe")
        return runProbe(o);
    die("unknown mode '" + o.mode + "'");
}
