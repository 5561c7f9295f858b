/**
 * @file
 * Parallel stepping engine oracle: the multi-threaded engine must be
 * bit-identical to the sequential StepPicker engine — same SimResult
 * to the last counter, and the same shared-commit schedule.
 *
 * Both engines can record a SharedStepLog (one (core, pre-step now)
 * entry per instruction that touches the shared LLC/DRAM, in commit
 * order). The sequential engine's log is the ground truth: the
 * StepPicker's argmin-over-(now, core) order. The parallel engine's
 * log is whatever order its turn protocol actually granted. The
 * suites below assert the two are equal element-for-element across
 * 2/4/8-core mixes, OCP-heavy chase workloads, epoch-rotation-heavy
 * configs, staggered finite-trace exhaustion, thread-count
 * variations, and snapshot/resume — i.e. the parallel engine is not
 * just statistically equivalent but executes the exact sequential
 * schedule.
 *
 * Note: plan.stepThreads is pinned explicitly in every run. The
 * default (0 = auto) resolves from the host's hardware concurrency,
 * so on a small CI box these tests would silently collapse to
 * sequential-vs-sequential and prove nothing.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

std::string
dataPath(const std::string &name)
{
    return std::string(ATHENA_TEST_DATA_DIR) + "/" + name;
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "parstep_" + name + ".asnp";
}

WorkloadSpec
pickWorkload(const char *substr)
{
    auto workloads = evalWorkloads();
    for (const WorkloadSpec &w : workloads) {
        if (w.name.find(substr) != std::string::npos)
            return w;
    }
    return workloads.front();
}

/** An n-core mix striding across the synthetic workload zoo. */
std::vector<WorkloadSpec>
stridedMix(unsigned n)
{
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> mix;
    for (unsigned i = 0; i < n; ++i)
        mix.push_back(workloads[(i * workloads.size()) / n]);
    return mix;
}

void
expectSlotEqual(const PrefetcherSlotStats &a,
                const PrefetcherSlotStats &b, const char *ctx,
                unsigned core, unsigned slot)
{
    EXPECT_EQ(a.issued, b.issued)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.used, b.used) << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.usedTimely, b.usedTimely)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.uselessEvictions, b.uselessEvictions)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.fillsFromDram, b.fillsFromDram)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.fillsFromDramUnused, b.fillsFromDramUnused)
        << ctx << " c" << core << " pf" << slot;
}

/** Full-SimResult equality: every counter, every core, exact. */
void
expectResultsIdentical(const SimResult &a, const SimResult &b,
                       const char *ctx)
{
    ASSERT_EQ(a.cores.size(), b.cores.size()) << ctx;
    for (unsigned c = 0; c < a.cores.size(); ++c) {
        const SimResult::PerCore &x = a.cores[c];
        const SimResult::PerCore &y = b.cores[c];
        EXPECT_EQ(x.workload, y.workload) << ctx << " c" << c;
        EXPECT_EQ(x.instructions, y.instructions) << ctx << " c" << c;
        EXPECT_EQ(x.cycles, y.cycles) << ctx << " c" << c;
        EXPECT_EQ(x.completedInstructions, y.completedInstructions)
            << ctx << " c" << c;
        EXPECT_EQ(x.streamExhausted, y.streamExhausted)
            << ctx << " c" << c;
        EXPECT_EQ(x.ipc, y.ipc) << ctx << " c" << c;
        EXPECT_EQ(x.loads, y.loads) << ctx << " c" << c;
        EXPECT_EQ(x.stores, y.stores) << ctx << " c" << c;
        EXPECT_EQ(x.branchMispredicts, y.branchMispredicts)
            << ctx << " c" << c;
        EXPECT_EQ(x.llcMisses, y.llcMisses) << ctx << " c" << c;
        EXPECT_EQ(x.llcMissLatency, y.llcMissLatency)
            << ctx << " c" << c;
        for (unsigned s = 0; s < x.pf.size(); ++s)
            expectSlotEqual(x.pf[s], y.pf[s], ctx, c, s);
        EXPECT_EQ(x.ocpPredictions, y.ocpPredictions)
            << ctx << " c" << c;
        EXPECT_EQ(x.ocpCorrect, y.ocpCorrect) << ctx << " c" << c;
        EXPECT_EQ(x.actionHistogram, y.actionHistogram)
            << ctx << " c" << c;
    }
    EXPECT_EQ(a.dram.demandRequests, b.dram.demandRequests) << ctx;
    EXPECT_EQ(a.dram.prefetchRequests, b.dram.prefetchRequests) << ctx;
    EXPECT_EQ(a.dram.ocpRequests, b.dram.ocpRequests) << ctx;
    EXPECT_EQ(a.dram.rowHits, b.dram.rowHits) << ctx;
    EXPECT_EQ(a.dram.rowMisses, b.dram.rowMisses) << ctx;
    EXPECT_EQ(a.dram.busBusyCycles, b.dram.busBusyCycles) << ctx;
    EXPECT_EQ(a.busUtilization, b.busUtilization) << ctx;
}

/**
 * Per-shard commit-schedule equality with a useful failure message:
 * on divergence, report the shard and first differing index rather
 * than dumping two hundred-thousand-entry vectors.
 */
void
expectLogsIdentical(const SharedStepLog &want,
                    const SharedStepLog &got, const char *ctx)
{
    ASSERT_EQ(want.shards.size(), got.shards.size())
        << ctx << ": shard counts differ";
    bool touched = false;
    for (std::size_t sh = 0; sh < want.shards.size(); ++sh) {
        const auto &w = want.shards[sh];
        const auto &g = got.shards[sh];
        touched = touched || !w.empty();
        const std::size_t n = std::min(w.size(), g.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (w[i] == g[i])
                continue;
            ADD_FAILURE()
                << ctx << ": shard " << sh
                << " commit schedules diverge at entry " << i
                << ": sequential committed core " << w[i].first
                << " @ cycle " << w[i].second
                << ", parallel committed core " << g[i].first
                << " @ cycle " << g[i].second;
            return;
        }
        EXPECT_EQ(w.size(), g.size())
            << ctx << ": shard " << sh << " schedules agree on the "
            << "common prefix but have different lengths";
    }
    EXPECT_TRUE(touched) << ctx << ": oracle log is empty — the run "
                         << "never touched shared state";
}

struct EngineRun
{
    SimResult res;
    SharedStepLog log;
};

EngineRun
runEngine(const SystemConfig &cfg,
          const std::vector<WorkloadSpec> &specs,
          std::uint64_t measured, std::uint64_t warmup,
          unsigned step_threads)
{
    EngineRun out;
    RunPlan plan(measured, warmup);
    plan.stepThreads = step_threads;
    Simulator sim(cfg, specs);
    sim.setSharedStepLog(&out.log);
    out.res = sim.run(plan);
    return out;
}

/**
 * The core contract: sequential (stepThreads = 1) vs parallel
 * (stepThreads = cores) must agree on the full result and on the
 * shared-commit schedule.
 */
void
checkEngineEquivalence(const SystemConfig &cfg,
                       const std::vector<WorkloadSpec> &specs,
                       std::uint64_t measured, std::uint64_t warmup,
                       const char *ctx)
{
    EngineRun seq = runEngine(cfg, specs, measured, warmup, 1);
    EngineRun par =
        runEngine(cfg, specs, measured, warmup, cfg.cores);
    expectResultsIdentical(seq.res, par.res, ctx);
    expectLogsIdentical(seq.log, par.log, ctx);
}

// ------------------------------------------------ schedule oracle

TEST(ParallelStep, MalformedStepThreadsEnvThrows)
{
    // The suite may run under a pinned engine; put it back after.
    const char *prev = std::getenv("ATHENA_STEP_THREADS");
    const std::string saved = prev ? prev : "";
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 2;
    const std::vector<WorkloadSpec> mix = stridedMix(2);
    for (const char *bad : {"abc", "4x", "-1", " 2", "99999999999"}) {
        setenv("ATHENA_STEP_THREADS", bad, 1);
        Simulator sim(cfg, mix);
        try {
            sim.run(RunPlan(2000, 500));
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("ATHENA_STEP_THREADS"),
                      std::string::npos)
                << e.what();
        }
    }
    setenv("ATHENA_STEP_THREADS", "", 1); // empty: auto
    Simulator sim(cfg, mix);
    EXPECT_NO_THROW(sim.run(RunPlan(2000, 500)));
    if (prev)
        setenv("ATHENA_STEP_THREADS", saved.c_str(), 1);
    else
        unsetenv("ATHENA_STEP_THREADS");
}

TEST(ParallelStep, TwoCoreAthenaMix)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 2;
    checkEngineEquivalence(
        cfg, {pickWorkload("bwaves"), pickWorkload("mcf")}, 20000,
        6000, "2c_athena");
}

TEST(ParallelStep, FourCoreAthenaMix)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    checkEngineEquivalence(cfg, stridedMix(4), 20000, 6000,
                           "4c_athena");
}

TEST(ParallelStep, EightCoreAthenaMix)
{
    // The Fig. 16 shape. Smaller budget: eight cores of chase-y
    // workloads are the slowest thing in this file.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 8;
    checkEngineEquivalence(cfg, stridedMix(8), 8000, 2000,
                           "8c_athena");
}

TEST(ParallelStep, TwoCoreNaiveChaseOcpHeavy)
{
    // Chase workloads under the naive policy maximize OCP traffic
    // (see kCd1NaiveChase in test_golden.cc) — every OCP
    // false-positive takes the dram->serve shared path, the gate
    // most easily missed by a racy engine.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 2;
    checkEngineEquivalence(
        cfg, {pickWorkload("mcf"), pickWorkload("mcf")}, 12000, 3000,
        "2c_naive_chase");
}

TEST(ParallelStep, FourCoreShortEpochs)
{
    // Epoch rotation ends with a dram->lifetime() read — a shared
    // touch that happens outside the load/store paths. Shrink the
    // epoch so it fires hundreds of times inside the budget.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    cfg.epochInstructions = 500;
    checkEngineEquivalence(cfg, stridedMix(4), 16000, 4000,
                           "4c_short_epochs");
}

// ------------------------------------------- thread-count knob

TEST(ParallelStep, ThreadCountInvariance)
{
    // Any stepThreads value must produce the same bits: 1 and
    // mid-range values fall back to the sequential engine, while
    // cores and anything above run the parallel engine with exactly
    // one stepping context per core.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    std::vector<WorkloadSpec> mix = stridedMix(4);

    EngineRun want = runEngine(cfg, mix, 16000, 4000, 1);
    for (unsigned threads : {2u, 4u, 16u}) {
        EngineRun got = runEngine(cfg, mix, 16000, 4000, threads);
        std::string ctx = "threads=" + std::to_string(threads);
        expectResultsIdentical(want.res, got.res, ctx.c_str());
        expectLogsIdentical(want.log, got.log, ctx.c_str());
    }
}

TEST(ParallelStep, RepeatParallelRunsBitIdentical)
{
    // Scheduling noise between runs (thread start order, preemption)
    // must not leak into results: two parallel runs of the same mix
    // reproduce each other exactly.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    std::vector<WorkloadSpec> mix = stridedMix(4);
    EngineRun a = runEngine(cfg, mix, 16000, 4000, cfg.cores);
    EngineRun b = runEngine(cfg, mix, 16000, 4000, cfg.cores);
    expectResultsIdentical(a.res, b.res, "repeat");
    expectLogsIdentical(a.log, b.log, "repeat");
}

// ------------------------------------- finite-stream exhaustion

TEST(ParallelStep, StaggeredFiniteTraceExhaustion)
{
    // Four trace-replay cores with staggered loop counts: streams
    // exhaust one after another, so the engine must keep committing
    // in sequential order while the set of live cores shrinks (the
    // `done` path of the turn protocol).
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 4;
    std::vector<WorkloadSpec> mix = {
        traceWorkloadSpec("t.a", dataPath("sample_loop.txt"), 1),
        traceWorkloadSpec("t.b", dataPath("sample_loop.txt"), 3),
        traceWorkloadSpec("t.c", dataPath("sample_mix.bin"), 1),
        traceWorkloadSpec("t.d", dataPath("sample_mix.bin"), 4)};

    EngineRun seq = runEngine(cfg, mix, 50000, 1000, 1);
    EngineRun par = runEngine(cfg, mix, 50000, 1000, cfg.cores);
    expectResultsIdentical(seq.res, par.res, "staggered");
    expectLogsIdentical(seq.log, par.log, "staggered");

    // The case is only meaningful if exhaustion actually staggers:
    // every stream must end before its budget, at distinct counts.
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_TRUE(par.res.cores[c].streamExhausted) << "c" << c;
    EXPECT_NE(par.res.cores[0].completedInstructions,
              par.res.cores[1].completedInstructions);
    EXPECT_NE(par.res.cores[2].completedInstructions,
              par.res.cores[3].completedInstructions);
}

// ------------------------------------------- snapshot / resume

TEST(ParallelStep, SnapshotResumeUnderParallelEngine)
{
    // Snapshot-at-warmup while the parallel engine runs the
    // measured window, then a parallel resume: both must equal the
    // sequential straight-through run.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    std::vector<WorkloadSpec> mix = stridedMix(4);
    constexpr std::uint64_t kMeasured = 16000;
    constexpr std::uint64_t kWarm = 4000;

    EngineRun want = runEngine(cfg, mix, kMeasured, kWarm, 1);

    const std::string path = tmpPath("mc4");
    RunPlan snap_plan(kMeasured, kWarm);
    snap_plan.stepThreads = cfg.cores;
    snap_plan.snapshotAfterWarmup = path;
    Simulator source(cfg, mix);
    SimResult via_snapshot = source.run(snap_plan);
    expectResultsIdentical(want.res, via_snapshot, "snap_source");

    RunPlan resume_plan(kMeasured, kWarm);
    resume_plan.stepThreads = cfg.cores;
    Simulator resumed(cfg, mix, path);
    SimResult got = resumed.run(resume_plan);
    expectResultsIdentical(want.res, got, "snap_resume");
    std::remove(path.c_str());
}

} // namespace
} // namespace athena
