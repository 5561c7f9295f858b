/**
 * @file
 * Warmup-snapshot cache tests: with ATHENA_SNAPSHOT_DIR set, the
 * first sweep of a (config, workload) pair simulates and snapshots
 * its warmup; later sweeps — including a second sweep at a new
 * policy configuration, whose kAllOff baseline shares the same
 * config hash — resume from the snapshots and simulate zero warmup
 * instructions, with bit-identical results.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/system_config.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

RunBudget
smallBudget()
{
    RunBudget b;
    b.simInstructions = 20000;
    b.warmupInstructions = 8000;
    b.mcSimInstructions = 10000;
    b.mcWarmupInstructions = 3000;
    return b;
}

class SnapshotCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = testing::TempDir() + "athena_snap_cache";
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        setenv("ATHENA_SNAPSHOT_DIR", dir.c_str(), 1);
    }

    void
    TearDown() override
    {
        unsetenv("ATHENA_SNAPSHOT_DIR");
        std::filesystem::remove_all(dir);
    }

    std::string dir;
};

TEST_F(SnapshotCacheTest, SecondSweepSkipsWarmup)
{
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> specs(workloads.begin(),
                                    workloads.begin() + 3);
    const std::uint64_t warm = smallBudget().warmupInstructions;

    SystemConfig naive =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    SystemConfig athena_cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);

    // Cold sweep: every run (baseline + policy per workload)
    // simulates its warmup and leaves a snapshot behind.
    ExperimentRunner cold(smallBudget());
    auto cold_rows = cold.speedups(naive, specs);
    EXPECT_EQ(cold.warmupInstructionsSimulated(),
              2 * specs.size() * warm);

    // Second sweep at a *new policy config*: the kAllOff baselines
    // alias the cached snapshots (configKey hashes only the
    // selected policy's configuration), so only the Athena policy
    // runs simulate warmup.
    ExperimentRunner warmed(smallBudget());
    auto warm_rows = warmed.speedups(athena_cfg, specs);
    EXPECT_EQ(warmed.warmupInstructionsSimulated(),
              specs.size() * warm);

    // Third sweep repeating the Athena config: fully cached, zero
    // warmup instructions simulated.
    ExperimentRunner hot(smallBudget());
    auto hot_rows = hot.speedups(athena_cfg, specs);
    EXPECT_EQ(hot.warmupInstructionsSimulated(), 0u);

    // Resumed runs are bit-identical to cold ones.
    ASSERT_EQ(warm_rows.size(), hot_rows.size());
    for (std::size_t i = 0; i < warm_rows.size(); ++i) {
        EXPECT_EQ(warm_rows[i].result.ipc(),
                  hot_rows[i].result.ipc())
            << specs[i].name;
        EXPECT_EQ(warm_rows[i].baselineIpc, hot_rows[i].baselineIpc)
            << specs[i].name;
        EXPECT_EQ(warm_rows[i].speedup, hot_rows[i].speedup)
            << specs[i].name;
    }
}

TEST_F(SnapshotCacheTest, CachedResultsMatchUncached)
{
    auto workloads = evalWorkloads();
    const WorkloadSpec &spec = workloads.front();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);

    // Reference run with the cache disabled.
    unsetenv("ATHENA_SNAPSHOT_DIR");
    ExperimentRunner plain(smallBudget());
    SimResult want = plain.runOne(cfg, spec);
    setenv("ATHENA_SNAPSHOT_DIR", dir.c_str(), 1);

    ExperimentRunner writer(smallBudget());
    SimResult first = writer.runOne(cfg, spec); // cold: writes
    SimResult second = writer.runOne(cfg, spec); // hot: resumes

    EXPECT_EQ(want.ipc(), first.ipc());
    EXPECT_EQ(want.ipc(), second.ipc());
    EXPECT_EQ(want.cores[0].cycles, second.cores[0].cycles);
    EXPECT_EQ(want.cores[0].llcMisses, second.cores[0].llcMisses);
    EXPECT_EQ(want.dram.demandRequests, second.dram.demandRequests);
    EXPECT_EQ(writer.warmupInstructionsSimulated(),
              smallBudget().warmupInstructions);
}

TEST_F(SnapshotCacheTest, ShardGeometryChangesCacheKey)
{
    // llcBanks/dramChannels are hashed into configKey, so a sweep
    // at a different shard geometry must NOT alias the cached
    // warmup snapshots of another geometry — it simulates its own
    // warmup instead of restoring a wrong-shaped snapshot.
    auto workloads = evalWorkloads();
    const WorkloadSpec &spec = workloads.front();
    SystemConfig mono =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    SystemConfig sharded = mono;
    sharded.llcBanks = 2;
    sharded.dramChannels = 2;

    ExperimentRunner first(smallBudget());
    SimResult mono_res = first.runOne(mono, spec);
    EXPECT_EQ(first.warmupInstructionsSimulated(),
              smallBudget().warmupInstructions);

    // Same design/policy, different geometry: cache miss, fresh
    // warmup.
    ExperimentRunner second(smallBudget());
    SimResult shard_res = second.runOne(sharded, spec);
    EXPECT_EQ(second.warmupInstructionsSimulated(),
              smallBudget().warmupInstructions);

    // Each geometry now resumes only from its own snapshot.
    ExperimentRunner third(smallBudget());
    SimResult shard_hot = third.runOne(sharded, spec);
    EXPECT_EQ(third.warmupInstructionsSimulated(), 0u);
    EXPECT_EQ(shard_res.ipc(), shard_hot.ipc());
    EXPECT_EQ(shard_res.cores[0].cycles, shard_hot.cores[0].cycles);
    // Sanity: single-channel and dual-channel runs really are
    // different experiments (per-channel bandwidth adds up).
    EXPECT_EQ(mono_res.cores[0].instructions,
              shard_res.cores[0].instructions);
}

TEST_F(SnapshotCacheTest, CorruptCacheEntryFallsBackToFreshRun)
{
    auto workloads = evalWorkloads();
    const WorkloadSpec &spec = workloads.front();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);

    ExperimentRunner writer(smallBudget());
    SimResult want = writer.runOne(cfg, spec);

    // Trash every cached snapshot.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::ofstream out(entry.path(),
                          std::ios::binary | std::ios::trunc);
        out << "garbage";
    }

    ExperimentRunner reader(smallBudget());
    SimResult got = reader.runOne(cfg, spec);
    EXPECT_EQ(want.ipc(), got.ipc());
    // The corrupt entry forced a fresh (warmup-simulating) run.
    EXPECT_EQ(reader.warmupInstructionsSimulated(),
              smallBudget().warmupInstructions);
}

TEST_F(SnapshotCacheTest, OldVersionEntryIsResimulated)
{
    // A cache entry written by the v2 format (stamped here by
    // rewriting the header's version field) is a miss: the runner
    // re-simulates warmup, and its result is bit-identical to a
    // cold run with no cache at all.
    auto workloads = evalWorkloads();
    const WorkloadSpec &spec = workloads.front();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);

    unsetenv("ATHENA_SNAPSHOT_DIR");
    ExperimentRunner plain(smallBudget());
    SimResult want = plain.runOne(cfg, spec);
    setenv("ATHENA_SNAPSHOT_DIR", dir.c_str(), 1);

    ExperimentRunner writer(smallBudget());
    (void)writer.runOne(cfg, spec);
    std::size_t stamped = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::fstream f(entry.path(), std::ios::binary | std::ios::in |
                                         std::ios::out);
        f.seekp(4);
        const char v2[2] = {2, 0}; // little-endian u16 version
        f.write(v2, 2);
        ++stamped;
    }
    ASSERT_EQ(stamped, 1u);

    ExperimentRunner reader(smallBudget());
    SimResult got = reader.runOne(cfg, spec);
    EXPECT_EQ(reader.warmupInstructionsSimulated(),
              smallBudget().warmupInstructions);
    ASSERT_EQ(got.cores.size(), 1u);
    const SimResult::PerCore &g = got.cores[0];
    const SimResult::PerCore &w = want.cores[0];
    EXPECT_EQ(g.ipc, w.ipc);
    EXPECT_EQ(g.cycles, w.cycles);
    EXPECT_EQ(g.loads, w.loads);
    EXPECT_EQ(g.llcMisses, w.llcMisses);
    EXPECT_EQ(g.llcMissLatency, w.llcMissLatency);
    EXPECT_EQ(g.ocpPredictions, w.ocpPredictions);
    EXPECT_EQ(g.ocpCorrect, w.ocpCorrect);
    EXPECT_EQ(g.actionHistogram, w.actionHistogram);
    for (std::size_t s = 0; s < g.pf.size(); ++s) {
        EXPECT_EQ(g.pf[s].issued, w.pf[s].issued) << "slot " << s;
        EXPECT_EQ(g.pf[s].used, w.pf[s].used) << "slot " << s;
    }
    EXPECT_EQ(got.dram.demandRequests, want.dram.demandRequests);
    EXPECT_EQ(got.dram.prefetchRequests, want.dram.prefetchRequests);
    EXPECT_EQ(got.dram.ocpRequests, want.dram.ocpRequests);
    EXPECT_EQ(got.busUtilization, want.busUtilization);
}

TEST_F(SnapshotCacheTest, DisabledWithoutEnvVar)
{
    unsetenv("ATHENA_SNAPSHOT_DIR");
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    ExperimentRunner runner(smallBudget());
    (void)runner.runOne(cfg, workloads.front());
    (void)runner.runOne(cfg, workloads.front());
    EXPECT_EQ(runner.warmupInstructionsSimulated(),
              2 * smallBudget().warmupInstructions);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
}

} // namespace
} // namespace athena
