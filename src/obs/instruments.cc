#include "obs/instruments.hpp"

namespace copra::obs {

namespace {

struct Catalog
{
    std::vector<InstrumentDesc> descs;
    Ids ids;
};

/** Append a scalar instrument and record its id. */
void
add(Catalog &c, InstrumentId &slot, const char *key, Kind kind,
    const char *unit, const char *description, const char *module)
{
    slot = static_cast<InstrumentId>(c.descs.size());
    c.descs.push_back({key, kind, unit, description, module});
}

/** Append a histogram instrument over [lo, hi] with @p bins bins. */
void
addHist(Catalog &c, InstrumentId &slot, const char *key, const char *unit,
        const char *description, const char *module, double lo, double hi,
        unsigned bins)
{
    slot = static_cast<InstrumentId>(c.descs.size());
    c.descs.push_back(
        {key, Kind::Histogram, unit, description, module, lo, hi, bins});
}

Catalog
buildCatalog()
{
    Catalog c;
    Ids &i = c.ids;

    // --- sim --------------------------------------------------------
    add(c, i.simRunBranches, "sim.run.branches", Kind::Counter,
        "branches",
        "dynamic conditional branches simulated by sim::run (all "
        "predictors, all paths)",
        "sim");
    add(c, i.simRunMispredicts, "sim.run.mispredicts", Kind::Counter,
        "branches", "mispredicted conditional branches across all "
        "sim::run passes", "sim");

    // --- predictor: modern-roster internals -------------------------
    add(c, i.tageAllocations, "tage.alloc", Kind::Counter, "entries",
        "TAGE tagged-table entries (re)allocated on mispredicts",
        "predictor");
    add(c, i.perceptronThresholdAdapts, "perceptron.threshold_adapts",
        Kind::Counter, "adjustments",
        "hashed-perceptron adaptive-threshold (theta) adjustments, "
        "increments plus decrements",
        "predictor");

    // --- core: mispredict taxonomy ----------------------------------
    add(c, i.simTaxonomyCold, "sim.taxonomy.cold", Kind::Counter,
        "mispredicts",
        "taxonomy mispredicts attributed to never-trained counters",
        "core");
    add(c, i.simTaxonomyInterference, "sim.taxonomy.interference",
        Kind::Counter, "mispredicts",
        "taxonomy mispredicts attributed to PHT aliasing by another "
        "(pc, history) context",
        "core");
    add(c, i.simTaxonomyTraining, "sim.taxonomy.training", Kind::Counter,
        "mispredicts",
        "taxonomy mispredicts attributed to own-context warm-up or "
        "hysteresis",
        "core");
    add(c, i.simTaxonomyNoise, "sim.taxonomy.noise", Kind::Counter,
        "mispredicts",
        "taxonomy mispredicts on trained, owned counters (inherent "
        "unpredictability)",
        "core");

    // --- core: hard-to-predict branch analysis ----------------------
    add(c, i.h2pCount, "h2p.count", Kind::Counter, "branches",
        "static branches classified hard-to-predict by the Lin-Tarsa "
        "criterion across all identifyH2p passes",
        "core");

    // --- core: per-phase timing -------------------------------------
    addHist(c, i.simPhaseTraceSeconds, "sim.phase.trace.seconds",
            "seconds",
            "wall time per trace generation or cache load, one sample "
            "per benchmark",
            "core", 0.0, 30.0, 30);
    addHist(c, i.simPhaseTraceCpuSeconds, "sim.phase.trace.cpu_seconds",
            "seconds",
            "thread CPU time per trace generation or cache load", "core",
            0.0, 30.0, 30);
    addHist(c, i.simPhasePredictorSeconds, "sim.phase.predictor.seconds",
            "seconds",
            "wall time per predictor-simulation phase (sim::run passes "
            "over one trace)",
            "core", 0.0, 30.0, 30);
    addHist(c, i.simPhasePredictorCpuSeconds,
            "sim.phase.predictor.cpu_seconds", "seconds",
            "thread CPU time per predictor-simulation phase", "core",
            0.0, 30.0, 30);
    addHist(c, i.simPhaseOracleSeconds, "sim.phase.oracle.seconds",
            "seconds",
            "wall time per selective-oracle / classifier phase", "core",
            0.0, 30.0, 30);
    addHist(c, i.simPhaseOracleCpuSeconds,
            "sim.phase.oracle.cpu_seconds", "seconds",
            "thread CPU time per selective-oracle / classifier phase",
            "core", 0.0, 30.0, 30);

    // --- util: thread pool ------------------------------------------
    add(c, i.poolTaskQueued, "pool.task.queued", Kind::Counter, "tasks",
        "tasks submitted to the thread pool queue", "util");
    add(c, i.poolTaskExecuted, "pool.task.executed", Kind::Counter,
        "tasks", "tasks completed by pool workers", "util");
    add(c, i.poolQueueDepthHighWater, "pool.task.queue_depth",
        Kind::Gauge, "tasks",
        "high-water mark of the pool's pending-task queue", "util");
    add(c, i.poolWorkerBusyMicros, "pool.worker.busy_micros",
        Kind::Counter, "microseconds",
        "total worker time spent running tasks (sum across workers; "
        "divide by wall time x workers for utilization)",
        "util");
    addHist(c, i.poolTaskSeconds, "pool.task.seconds", "seconds",
            "run time of individual pool tasks", "util", 0.0, 10.0, 40);
    add(c, i.poolWorkerCount, "pool.worker.count", Kind::Gauge,
        "threads", "worker threads in the global pool at manifest time",
        "util");

    // --- trace: parallel generation ---------------------------------
    add(c, i.traceGenChunks, "trace.gen.chunks", Kind::Counter,
        "chunks",
        "independently-seeded generation chunks executed (1 per trace "
        "when the budget fits a single chunk)",
        "trace");
    add(c, i.traceGenConditionals, "trace.gen.conditionals",
        Kind::Counter, "branches",
        "conditional branches produced by workload trace generation",
        "trace");

    // --- trace: on-disk cache ---------------------------------------
    add(c, i.traceCacheHit, "trace.cache.hit", Kind::Counter, "entries",
        "trace cache lookups served from disk", "trace");
    add(c, i.traceCacheMmapHit, "trace.cache.mmap_hit", Kind::Counter,
        "entries",
        "cache hits decoded through the mmap fast path (subset of "
        "trace.cache.hit)",
        "trace");
    add(c, i.traceCacheMiss, "trace.cache.miss", Kind::Counter,
        "entries",
        "trace cache lookups that fell through to generation", "trace");
    add(c, i.traceCacheEvict, "trace.cache.evict", Kind::Counter,
        "entries",
        "corrupt, truncated or mislabeled cache entries dropped",
        "trace");
    add(c, i.traceCacheReadBytes, "trace.cache.read_bytes",
        Kind::Counter, "bytes", "bytes loaded from trace cache entries",
        "trace");
    add(c, i.traceCacheWriteBytes, "trace.cache.write_bytes",
        Kind::Counter, "bytes", "bytes written as new trace cache "
        "entries", "trace");
    addHist(c, i.traceCacheEntryBytes, "trace.cache.entry_bytes",
            "bytes", "size distribution of cache entries touched "
            "(reads and writes)",
            "trace", 0.0, 64.0 * 1024 * 1024, 64);

    // --- trace: foreign-trace ingestion -----------------------------
    add(c, i.traceIngestRecords, "trace.ingest.records", Kind::Counter,
        "records", "branch records accepted by foreign-trace ingestion",
        "trace");
    add(c, i.traceIngestConditionals, "trace.ingest.conditionals",
        Kind::Counter, "branches",
        "conditional branches among the accepted records", "trace");
    add(c, i.traceIngestNormalized, "trace.ingest.normalized",
        Kind::Counter, "records",
        "non-conditional records whose outcome was coerced to taken "
        "during normalization",
        "trace");
    add(c, i.traceIngestReordered, "trace.ingest.reordered",
        Kind::Counter, "records",
        "CSV rows moved back into index order during normalization",
        "trace");
    add(c, i.traceIngestWarnings, "trace.ingest.warnings",
        Kind::Counter, "warnings",
        "non-fatal validation warnings emitted while ingesting",
        "trace");

    // --- check: differential harness --------------------------------
    add(c, i.checkDiffTraces, "check.diff.traces", Kind::Counter,
        "traces", "fuzzed traces replayed by the differential suite",
        "check");
    add(c, i.checkDiffComparisons, "check.diff.comparisons",
        Kind::Counter, "replays",
        "(pair, trace) differential replays performed", "check");
    add(c, i.checkDiffMismatches, "check.diff.mismatches", Kind::Counter,
        "mismatches",
        "per-branch prediction divergences found (0 on a healthy tree)",
        "check");
    add(c, i.checkDiffShrinkSteps, "check.diff.shrink_steps",
        Kind::Counter, "replays",
        "candidate replays performed by the delta-debugging trace "
        "minimizer",
        "check");

    // --- bench: suite fan-out ---------------------------------------
    addHist(c, i.benchSuiteWallSeconds, "bench.suite.wall_seconds",
            "seconds",
            "end-to-end wall time of one harness suite fan-out", "bench",
            0.0, 120.0, 60);

    return c;
}

const Catalog &
catalog()
{
    // Leaked for the same reason as the registry: worker threads may
    // consult the catalog during their exit-time sink merge.
    // copra-lint: sanctioned-global(immutable instrument catalog, built once)
    static const Catalog *c = new Catalog(buildCatalog());
    return *c;
}

} // namespace

const std::vector<InstrumentDesc> &
instrumentCatalog()
{
    return catalog().descs;
}

const Ids &
ids()
{
    return catalog().ids;
}

} // namespace copra::obs
