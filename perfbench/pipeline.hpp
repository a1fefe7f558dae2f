/**
 * @file
 * The benchmark's workloads, built only from copra's public entry
 * points (the calls the figure harnesses make), with a span recorder
 * wrapped around each call so a traced run can attribute time to the
 * layer that spent it. Nothing here changes what the program computes.
 */

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/best_of.hpp"
#include "core/experiments.hpp"
#include "sim/driver.hpp"
#include "sim/ledger.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/** One predictor of a workload: metric label and factory spec. */
struct SpecDef
{
    const char *label; //!< metric suffix, e.g. "if_gshare"
    const char *spec;  //!< predictor/factory spec, e.g. "ifgshare"
};

/** Which figure pipeline a workload runs per suite member. */
enum class Pipeline
{
    Split,  //!< fig7: gshare + PAs + ideal static, best-of split
    Roster, //!< fig10: modern roster, best-of ledger, H2P, CDF
    Oracle, //!< fig8: IF-gshare, selective oracle, PA classifier
};

/** A named benchmark workload. */
struct Workload
{
    std::string name;
    Pipeline pipeline;
    std::vector<std::string> members; //!< suite members, in suite order
    uint64_t branches;                //!< conditional branches per member
    std::vector<SpecDef> specs;
    bool parallel; //!< fan members out over min(nproc, 4) workers
};

/** The workload called @p name, or nullopt. */
std::optional<Workload> findWorkload(const std::string &name);

/** Experiment parameters of @p w at workload seed @p seed. */
copra::core::ExperimentConfig configFor(const Workload &w, uint64_t seed);

/** One recorded span: a timed call into one layer. */
struct Span
{
    std::string name;
    double start = 0.0; //!< seconds since the recorder's origin
    double end = 0.0;
    int parent = -1; //!< index of the enclosing span, -1 for a root
    int member = -1; //!< suite-member id shared by its spans, -1 if none
};

/**
 * In-memory span store. Disabled, open() returns -1 and costs one
 * branch; enabled, spans are appended under a mutex (spans are per
 * call into a layer, never per branch) and written out at run end.
 */
class SpanRecorder
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    int open(const std::string &name, int parent, int member);
    void close(int id);

    /** Every span recorded so far. */
    std::vector<Span> spans() const;

    /** Seconds since the recorder was created. */
    double now() const;

  private:
    bool enabled_ = false;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, const std::string &name, int parent,
          int member)
        : rec_(rec), id_(rec.open(name, parent, member))
    {
    }
    ~Scope() { rec_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int id_;
};

/** One predictor pass over one member. */
struct SpecRun
{
    copra::sim::RunResult result;
    copra::sim::Ledger ledger;
    uint64_t stateBits = 0;
};

/** Everything one member's pipeline produced, kept for checking. */
struct MemberResult
{
    std::string name;
    uint64_t conditionals = 0;
    double loadRssMb = 0.0;    //!< memoryInUseMb() growth across loading
    std::vector<SpecRun> runs; //!< parallel to Workload::specs
    copra::sim::Ledger idealStatic;
    copra::core::BestOfSplit split; //!< Split and Oracle pipelines

    // Roster pipeline.
    copra::sim::Ledger bestOf;
    std::vector<std::vector<uint64_t>> h2pSets; //!< per spec, then best-of
    uint64_t h2pDynamic = 0;     //!< dynamic branches the best-of H2P saw
    uint64_t cdfMispredicts = 0; //!< mispredictions in the best-of CDF

    // Oracle pipeline.
    copra::sim::Ledger oracle3;
    copra::sim::Ledger bestPa;
    uint64_t oracleExecs = 0;
    uint64_t selCorrect[3] = {0, 0, 0};
    std::array<double, 4> classFractions{};
};

/**
 * Run @p w's pipeline over member @p index: load the trace from the
 * global cache, run every predictor pass and the analysis passes,
 * wrapping each call in a span under @p parent.
 */
MemberResult runMember(const Workload &w,
                       const copra::core::ExperimentConfig &config,
                       size_t index, SpanRecorder &rec, int parent);

/** Failure messages of checks; every check is one attempted operation. */
struct CheckTally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; //!< first few messages

    void expect(bool ok, const std::string &what);
};

/** Ledger coverage, RunResult totals and split sums of one member. */
void checkInvariants(const Workload &w, const MemberResult &m,
                     CheckTally &tally);

/** Digest of every simulated statistic of one member, as hex. */
std::string digest(const Workload &w, const MemberResult &m);

/**
 * Replay @p trace (the member's trace, reloaded) through the scalar
 * predict()/update() path of every spec and compare each per-branch
 * tally with the ledger the batch pass produced.
 */
void checkScalarReplay(const Workload &w, const MemberResult &m,
                       const copra::trace::Trace &trace,
                       CheckTally &tally);

/**
 * Memory this process holds, in MiB: heap bytes in use plus resident
 * file-backed pages (a trace may live in either). Unlike the resident
 * set size, its growth across one call does not hide behind memory the
 * allocator kept from an earlier call.
 */
double memoryInUseMb();

} // namespace perfbench
