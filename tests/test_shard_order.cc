/**
 * @file
 * Sharded shared-memory plane oracles: banked LLC + channeled DRAM
 * under the parallel stepping engine.
 *
 * Four contracts are pinned here:
 *
 *  1. Per-shard commit order. On any geometry, the parallel engine's
 *     per-shard commit logs must equal the sequential engine's
 *     per-shard projection entry-for-entry — across 4/8/16/32-core
 *     mixes including the Fig. 16-style many-core presets.
 *
 *  2. Bank-count bit-invariance. With a power-of-two bank count the
 *     interleave is a pure re-labeling of the monolithic set index
 *     (bank bits + bank-local set bits = monolithic set index, tags
 *     coincide), so {1, 2, 4, 8} banks produce the same SimResult to
 *     the last counter. Note there is NO analogous invariance across
 *     channel counts: bandwidthGBps is per channel, so adding
 *     channels adds aggregate bandwidth by design.
 *
 *  3. Exact decode for any shard count: odd / non-power-of-two bank
 *     and channel counts run through the reciprocal-division path
 *     and must still satisfy the seq-vs-par oracle.
 *
 *  4. Snapshot/resume on sharded geometry, including the named
 *     geometry-mismatch errors a wrong-shaped restore must raise.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mem/shard.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "snapshot/snapshot.hh"
#include "trace/workload.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "shardord_" + name + ".asnp";
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

/** Per-shard commit-schedule equality with first-divergence info. */
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

/** Seq-vs-par bit-equality: full result + per-shard commit logs. */
void
checkShardedEquivalence(const SystemConfig &cfg,
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

// ----------------------------------------------- decode algebra

TEST(ShardDecode, DivisionMatchesShiftOnPow2Counts)
{
    // The reciprocal-division path must agree with the shift/mask
    // path everywhere it can be cross-checked: every pow2 count.
    const std::uint64_t lines[] = {
        0,       1,        2,          3,          63,
        64,      65,       1000003,    (1ull << 32) - 1,
        1ull << 32,        (1ull << 52) + 12345,
        ~std::uint64_t{0} >> 6};
    for (std::uint64_t count : {1u, 2u, 4u, 8u, 16u, 64u}) {
        ShardDecode fast(count);
        ShardDecode slow(count, /*force_division=*/true);
        for (std::uint64_t line : lines) {
            EXPECT_EQ(fast.shardOf(line), slow.shardOf(line))
                << "count=" << count << " line=" << line;
            EXPECT_EQ(fast.localLine(line), slow.localLine(line))
                << "count=" << count << " line=" << line;
        }
    }
}

TEST(ShardDecode, ExactPartitionForAnyCount)
{
    // shardOf/localLine must be a true divmod (exact partition of
    // the line space) and globalLine its exact inverse — including
    // odd and composite non-pow2 counts.
    const std::uint64_t lines[] = {
        0,  1,  2,  6,  7,  8,  41, 97, 1000000007ull,
        (1ull << 40) + 17, ~std::uint64_t{0} >> 8};
    for (std::uint64_t count : {1u, 3u, 5u, 6u, 7u, 12u, 33u}) {
        ShardDecode d(count);
        for (std::uint64_t line : lines) {
            const std::uint64_t shard = d.shardOf(line);
            const std::uint64_t local = d.localLine(line);
            EXPECT_LT(shard, count) << "count=" << count;
            EXPECT_EQ(local * count + shard, line)
                << "count=" << count << " line=" << line;
            EXPECT_EQ(d.globalLine(local, shard), line)
                << "count=" << count << " line=" << line;
        }
    }
}

// --------------------------------------- per-shard commit oracle

TEST(ShardOrder, FourCoreShardedGeometry)
{
    // Explicit small sharded geometry at 4 cores: 2 banks, 2
    // channels, so every shard class has more than one member.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    cfg.llcBanks = 2;
    cfg.dramChannels = 2;
    checkShardedEquivalence(cfg, stridedMix(4), 16000, 4000,
                            "4c_b2ch2");
}

TEST(ShardOrder, EightCoreShardedGeometry)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 8;
    cfg.llcBanks = 4;
    cfg.dramChannels = 2;
    checkShardedEquivalence(cfg, stridedMix(8), 8000, 2000,
                            "8c_b4ch2");
}

TEST(ShardOrder, SixteenCorePreset)
{
    // The 16-core Fig. 16-style preset (4 banks / 2 channels).
    SystemConfig cfg = makeManyCoreConfig(16);
    ASSERT_GE(cfg.llcBanks, 2u);
    ASSERT_GE(cfg.dramChannels, 2u);
    checkShardedEquivalence(cfg, stridedMix(16), 5000, 1200,
                            "16c_preset");
}

TEST(ShardOrder, ThirtyTwoCorePreset)
{
    // The 32-core preset (8 banks / 4 channels). Small budget: this
    // is the widest engine configuration in the test tree.
    SystemConfig cfg = makeManyCoreConfig(32);
    ASSERT_GE(cfg.llcBanks, 2u);
    ASSERT_GE(cfg.dramChannels, 2u);
    checkShardedEquivalence(cfg, stridedMix(32), 3000, 800,
                            "32c_preset");
}

TEST(ShardOrder, OddShardCountsDivisionDecode)
{
    // Non-pow2 bank and channel counts exercise the reciprocal
    // division decode on every shared access. The seq-vs-par oracle
    // must hold there exactly as on the shift/mask path. Three
    // cores keep each of the 3 banks a whole power-of-two cache
    // (9 MB / 3 = 4096 sets of 12 ways).
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 3;
    cfg.llcBanks = 3;
    cfg.dramChannels = 3;
    checkShardedEquivalence(cfg, stridedMix(3), 12000, 3000,
                            "3c_b3ch3");
}

TEST(ShardOrder, GeometryMatrixSeqParEquality)
{
    // Every geometry in {1,2,4,8} banks x {1,2,4} channels must
    // satisfy the oracle. (Results differ ACROSS channel counts —
    // bandwidth is per channel — but seq and par must agree within
    // each geometry.)
    SystemConfig base =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    base.cores = 4;
    std::vector<WorkloadSpec> mix = stridedMix(4);
    for (unsigned banks : {1u, 2u, 4u, 8u}) {
        for (unsigned channels : {1u, 2u, 4u}) {
            SystemConfig cfg = base;
            cfg.llcBanks = banks;
            cfg.dramChannels = channels;
            std::string ctx = "b" + std::to_string(banks) + "ch" +
                              std::to_string(channels);
            checkShardedEquivalence(cfg, mix, 6000, 1500,
                                    ctx.c_str());
        }
    }
}

// ------------------------------------- bank-count bit-invariance

TEST(ShardOrder, Pow2BankCountIsBitInvariant)
{
    // With pow2 banks the interleave re-labels the monolithic set
    // index without changing any lookup/victim decision, so the
    // entire SimResult is invariant in the bank count. Channels are
    // held fixed (channel count changes aggregate bandwidth).
    SystemConfig base =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    base.cores = 4;
    base.dramChannels = 2;
    std::vector<WorkloadSpec> mix = stridedMix(4);

    base.llcBanks = 1;
    EngineRun want = runEngine(base, mix, 16000, 4000, 1);
    for (unsigned banks : {2u, 4u, 8u}) {
        SystemConfig cfg = base;
        cfg.llcBanks = banks;
        std::string ctx = "banks=" + std::to_string(banks);
        EngineRun seq = runEngine(cfg, mix, 16000, 4000, 1);
        expectResultsIdentical(want.res, seq.res, ctx.c_str());
        EngineRun par = runEngine(cfg, mix, 16000, 4000, cfg.cores);
        expectResultsIdentical(want.res, par.res,
                               (ctx + "_par").c_str());
    }
}

// ------------------------------------------- snapshot / resume

TEST(ShardOrder, SnapshotResumeOnShardedGeometry)
{
    // Snapshot-at-warmup under the parallel engine on a sharded
    // geometry, then a parallel resume: both must equal the
    // sequential straight-through run.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    cfg.llcBanks = 4;
    cfg.dramChannels = 2;
    std::vector<WorkloadSpec> mix = stridedMix(4);
    constexpr std::uint64_t kMeasured = 16000;
    constexpr std::uint64_t kWarm = 4000;

    EngineRun want = runEngine(cfg, mix, kMeasured, kWarm, 1);

    const std::string path = tmpPath("b4ch2");
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

TEST(ShardOrder, GeometryMismatchRestoreIsNamedError)
{
    // Restoring a snapshot into a configuration with a different
    // shard geometry must fail with an error that names the
    // mismatched dimension, not a generic config-key complaint.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 2;
    cfg.llcBanks = 2;
    cfg.dramChannels = 2;
    std::vector<WorkloadSpec> mix = stridedMix(2);

    const std::string path = tmpPath("geom_mismatch");
    RunPlan plan(4000, 1000);
    plan.stepThreads = 1;
    plan.snapshotAfterWarmup = path;
    Simulator source(cfg, mix);
    source.run(plan);

    SystemConfig wrong_banks = cfg;
    wrong_banks.llcBanks = 4;
    try {
        Simulator bad(wrong_banks, mix, path);
        FAIL() << "restore with wrong bank count did not throw";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "LLC bank count mismatch"),
                  std::string::npos)
            << e.what();
    }

    SystemConfig wrong_channels = cfg;
    wrong_channels.dramChannels = 4;
    try {
        Simulator bad(wrong_channels, mix, path);
        FAIL() << "restore with wrong channel count did not throw";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "DRAM channel count mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace athena
