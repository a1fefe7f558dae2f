/**
 * @file
 * Implementation of the runtime hot-path gates (hot_gates.hpp). See
 * DESIGN.md §15 for the static/dynamic division of labor.
 */

#include "check/hot_gates.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>

#include "check/fuzz.hpp"
#include "sim/driver.hpp"
#include "trace/trace.hpp"
#include "util/sync.hpp"

namespace copra::check {

namespace {

// copra-lint: sanctioned-global(hot-gate allocation tally, fed by the copra_check binary's operator-new hook)
std::atomic<uint64_t> g_hotAllocs{0};
// copra-lint: sanctioned-global(records whether the operator-new hook TU is linked into this binary)
std::atomic<bool> g_allocProbeLinked{false};

/**
 * A terminate handler that names the contract being enforced: the lint
 * pass forces every hot function to be noexcept, so an exception on
 * the hot path lands here rather than unwinding into silent
 * mispredictions.
 */
[[noreturn]] void
hotGateTerminate()
{
    std::fputs("copra_check --hot-gates: std::terminate reached — an "
               "exception escaped the noexcept hot region "
               "(DESIGN.md §15)\n",
               stderr);
    std::abort();
}

/** RAII terminate-handler swap for the duration of the gates. */
class TerminateGuard
{
  public:
    TerminateGuard() : prev_(std::set_terminate(&hotGateTerminate)) {}
    ~TerminateGuard() { std::set_terminate(prev_); }
    TerminateGuard(const TerminateGuard &) = delete;
    TerminateGuard &operator=(const TerminateGuard &) = delete;

  private:
    std::terminate_handler prev_;
};

} // namespace

void
noteHotAlloc() noexcept
{
    g_hotAllocs.fetch_add(1, std::memory_order_relaxed);
}

void
registerAllocProbe() noexcept
{
    g_allocProbeLinked.store(true, std::memory_order_relaxed);
}

bool
allocProbeLinked() noexcept
{
    return g_allocProbeLinked.load(std::memory_order_relaxed);
}

uint64_t
hotAllocCount() noexcept
{
    return g_hotAllocs.load(std::memory_order_relaxed);
}

HotGateReport
runHotGates(const HotGateOptions &options,
            const std::vector<StatePredictor> &roster)
{
    HotGateReport report;
    report.allocProbe = allocProbeLinked();
    TerminateGuard terminate_guard;

    for (const StatePredictor &entry : roster) {
        for (uint64_t seed = options.seedBase;
             seed < options.seedBase + options.traces; ++seed) {
            trace::Trace trace = fuzzTrace(seed, options.conditionals);
            // The replays are sim::runLoop itself, with the ledger
            // buffers sim::run would hand it, so ledger accumulation
            // is inside the measured region too.
            const trace::SoABlocks &soa = trace.soa();
            std::vector<uint8_t> correct(sim::maxSegment(soa));
            std::vector<sim::BranchTally> tallies(soa.staticCount());

            // Warm-up: first-touch table fills, then history-keyed
            // instrument pinning — including per-address history
            // registers of rare branches, which converge only after
            // ceil(history_bits / occurrences-per-pass) passes (see
            // HotGateOptions::warmupPasses).
            predictor::PredictorPtr pred = entry.make();
            for (uint64_t pass = 0; pass < options.warmupPasses;
                 ++pass)
                sim::runLoop(soa, *pred, correct.data(),
                             tallies.data());

            for (uint64_t pass = 0; pass < options.steadyPasses;
                 ++pass) {
                uint64_t allocs_before = hotAllocCount();
                uint64_t locks_before = util::lockAcquisitionCount();
                sim::runLoop(soa, *pred, correct.data(),
                             tallies.data());
                uint64_t alloc_delta =
                    hotAllocCount() - allocs_before;
                uint64_t lock_delta =
                    util::lockAcquisitionCount() - locks_before;

                if (report.allocProbe) {
                    ++report.gatesRun;
                    if (alloc_delta != 0) {
                        report.failures.push_back(
                            {entry.spec, "hot-alloc", seed,
                             std::to_string(alloc_delta) +
                                 " heap allocation(s) in a "
                                 "steady-state replay of " +
                                 std::to_string(options.conditionals) +
                                 " conditionals"});
                    }
                }
                ++report.gatesRun;
                if (lock_delta != 0) {
                    report.failures.push_back(
                        {entry.spec, "hot-lock", seed,
                         std::to_string(lock_delta) +
                             " lock acquisition(s) in a steady-state "
                             "replay of " +
                             std::to_string(options.conditionals) +
                             " conditionals"});
                }
            }
        }
    }
    return report;
}

std::string
formatHotGateReport(const HotGateReport &report)
{
    std::ostringstream os;
    os << "hot gates: " << report.gatesRun << " checks, "
       << report.failures.size() << " failure(s)";
    if (!report.allocProbe)
        os << " [alloc probe absent: sanitizer build owns the "
              "allocator, only the lock gate ran]";
    os << "\n";
    for (const HotGateFailure &f : report.failures) {
        os << "  FAIL " << f.spec << " [" << f.gate
           << "] seed=" << f.seed << ": " << f.detail << "\n";
    }
    return os.str();
}

} // namespace copra::check
