/**
 * @file
 * ExperimentRunner tests: baseline caching, category reduction,
 * adverse-set classification, parallel determinism, and the
 * multi-core mix speedup metric.
 */


#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <gtest/gtest.h>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/runner.hh"
#include "sim/thread_pool.hh"

namespace athena
{
namespace
{

class RunnerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Keep runner-level tests fast regardless of the ambient
        // environment.
        setenv("ATHENA_SIM_INSTR", "40000", 1);
        setenv("ATHENA_WARMUP_INSTR", "10000", 1);
        setenv("ATHENA_MC_INSTR", "20000", 1);
        setenv("ATHENA_MC_WARMUP", "5000", 1);
    }

    void
    TearDown() override
    {
        unsetenv("ATHENA_SIM_INSTR");
        unsetenv("ATHENA_WARMUP_INSTR");
        unsetenv("ATHENA_MC_INSTR");
        unsetenv("ATHENA_MC_WARMUP");
    }
};

TEST_F(RunnerTest, EnvControlsInstructionCounts)
{
    ExperimentRunner runner;
    EXPECT_EQ(runner.budget.simInstructions, 40000u);
    EXPECT_EQ(runner.budget.warmupInstructions, 10000u);
    EXPECT_EQ(runner.budget.mcSimInstructions, 20000u);
    EXPECT_EQ(runner.budget.mcWarmupInstructions, 5000u);
}

TEST_F(RunnerTest, MalformedBudgetEnvThrows)
{
    for (const char *bad : {"abc", "40000x", "-5", " 7", "1e6",
                            "99999999999999999999"}) {
        setenv("ATHENA_SIM_INSTR", bad, 1);
        try {
            (void)RunBudget::fromEnv();
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("ATHENA_SIM_INSTR"),
                      std::string::npos)
                << e.what();
        }
    }
    setenv("ATHENA_SIM_INSTR", "", 1); // empty: the default
    EXPECT_EQ(RunBudget::fromEnv().simInstructions,
              RunBudget{}.simInstructions);
    setenv("ATHENA_MC_WARMUP", "5k", 1);
    EXPECT_THROW(RunBudget::fromEnv(), std::invalid_argument);
}

TEST_F(RunnerTest, ExplicitBudgetOverridesEnv)
{
    RunBudget b;
    b.simInstructions = 123;
    b.warmupInstructions = 45;
    ExperimentRunner runner(b);
    EXPECT_EQ(runner.budget.simInstructions, 123u);
    EXPECT_EQ(runner.budget.warmupInstructions, 45u);
}

TEST_F(RunnerTest, BaselineCacheIsConsistent)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    double a = runner.baselineIpc(cfg, workloads[0]);
    double b = runner.baselineIpc(cfg, workloads[0]);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
}

TEST_F(RunnerTest, BaselineDiffersAcrossBandwidths)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig narrow =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    narrow.bandwidthGBps = 1.6;
    SystemConfig wide = narrow;
    wide.bandwidthGBps = 12.8;
    double ipc_n = runner.baselineIpc(narrow, workloads[0]);
    double ipc_w = runner.baselineIpc(wide, workloads[0]);
    EXPECT_NE(ipc_n, ipc_w) << "cache key must include bandwidth";
}

TEST_F(RunnerTest, SpeedupsCoverAllWorkloads)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 8);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);
    auto rows = runner.speedups(cfg, subset);
    ASSERT_EQ(rows.size(), subset.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].workload, subset[i].name);
        EXPECT_GT(rows[i].speedup, 0.2);
        EXPECT_LT(rows[i].speedup, 5.0);
    }
}

TEST_F(RunnerTest, SummarizeSplitsCategories)
{
    std::vector<SpeedupRow> rows;
    auto add = [&](const char *name, Suite suite, double speedup) {
        SpeedupRow row;
        row.workload = name;
        row.suite = suite;
        row.speedup = speedup;
        rows.push_back(row);
    };
    add("a", Suite::kSpec06, 2.0);
    add("b", Suite::kParsec, 1.0);
    add("c", Suite::kLigra, 0.5);
    add("d", Suite::kCvp, 1.0);
    std::set<std::string> adverse = {"c"};
    CategorySummary s = ExperimentRunner::summarize(rows, adverse);
    EXPECT_DOUBLE_EQ(s.spec, 2.0);
    EXPECT_DOUBLE_EQ(s.parsec, 1.0);
    EXPECT_DOUBLE_EQ(s.ligra, 0.5);
    EXPECT_DOUBLE_EQ(s.adverse, 0.5);
    EXPECT_NEAR(s.friendly, std::pow(2.0, 1.0 / 3.0), 1e-9);
    EXPECT_NEAR(s.overall, 1.0, 1e-9);
}

TEST_F(RunnerTest, AdverseSetIsCachedAndSane)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 12);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kPfOnly);
    auto a = runner.adverseSet(cfg, subset);
    auto b = runner.adverseSet(cfg, subset);
    EXPECT_EQ(a, b);
    EXPECT_LE(a.size(), subset.size());
}

TEST_F(RunnerTest, SpeedupsReuseAdverseSetRuns)
{
    // Fig. 7's pf-only sweep is the run adverseSet already did: the
    // memo must serve every row without simulating again, and the
    // rows must equal a fresh runner's exactly.
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 4);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kPfOnly);
    ExperimentRunner runner;
    (void)runner.adverseSet(cfg, subset);
    const std::uint64_t warm = runner.warmupInstructionsSimulated();
    EXPECT_GT(warm, 0u);
    auto rows = runner.speedups(cfg, subset);
    EXPECT_EQ(runner.warmupInstructionsSimulated(), warm);

    ExperimentRunner fresh;
    auto want = fresh.speedups(cfg, subset);
    ASSERT_EQ(rows.size(), want.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].workload, want[i].workload);
        EXPECT_EQ(rows[i].speedup, want[i].speedup) << want[i].workload;
        EXPECT_EQ(rows[i].baselineIpc, want[i].baselineIpc)
            << want[i].workload;
        EXPECT_EQ(rows[i].result.cores[0].cycles,
                  want[i].result.cores[0].cycles);
        EXPECT_EQ(rows[i].result.cores[0].llcMisses,
                  want[i].result.cores[0].llcMisses);
        EXPECT_EQ(rows[i].result.cores[0].pf[0].issued,
                  want[i].result.cores[0].pf[0].issued);
        EXPECT_EQ(rows[i].result.dram.prefetchRequests,
                  want[i].result.dram.prefetchRequests);
    }
}

TEST_F(RunnerTest, AllOffSpeedupsAreTheirOwnBaseline)
{
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 3);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAllOff);
    ExperimentRunner runner;
    auto rows = runner.speedups(cfg, subset);
    EXPECT_EQ(runner.warmupInstructionsSimulated(),
              subset.size() * runner.budget.warmupInstructions);
    for (const SpeedupRow &row : rows) {
        EXPECT_EQ(row.speedup, 1.0) << row.workload;
        EXPECT_GT(row.baselineIpc, 0.0) << row.workload;
    }
}

TEST_F(RunnerTest, MixSpeedupIsPositive)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);
    cfg.cores = 2;
    std::vector<WorkloadSpec> mix = {workloads[0], workloads[15]};
    double s = runner.mixSpeedup(cfg, mix);
    EXPECT_GT(s, 0.3);
    EXPECT_LT(s, 4.0);
}

TEST_F(RunnerTest, MixBaselineSimulatesOncePerRunner)
{
    // Naive then Athena on the same 4-core mix share one all-off
    // baseline: three mix runs of 4 cores x 1000 warmup
    // instructions, not four.
    RunBudget budget = RunBudget::fromEnv();
    budget.mcWarmupInstructions = 1000;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> mix = {workloads[0], workloads[5],
                                     workloads[10], workloads[15]};
    SystemConfig naive =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    naive.cores = 4;
    SystemConfig athena_cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    athena_cfg.cores = 4;

    unsetenv("ATHENA_SNAPSHOT_DIR");
    ExperimentRunner runner(budget);
    double naive_s = runner.mixSpeedup(naive, mix);
    double athena_s = runner.mixSpeedup(athena_cfg, mix);
    EXPECT_EQ(runner.warmupInstructionsSimulated(), 12000u);

    // Same speedups as runners that simulate each config's
    // baseline from scratch.
    ExperimentRunner fresh_naive(budget);
    EXPECT_EQ(naive_s, fresh_naive.mixSpeedup(naive, mix));
    ExperimentRunner fresh_athena(budget);
    EXPECT_EQ(athena_s, fresh_athena.mixSpeedup(athena_cfg, mix));
    EXPECT_EQ(fresh_athena.warmupInstructionsSimulated(), 8000u);
}

TEST_F(RunnerTest, BaselineCacheSafeUnderConcurrentCalls)
{
    // Hammer the baseline cache from many threads with a mix of
    // repeated and distinct keys: every call must return the same
    // value a cold sequential runner computes, with no torn reads
    // or lost inserts.
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);

    const std::size_t kWorkloads = 4;
    const std::size_t kRepeats = 8;
    std::vector<double> got(kWorkloads * kRepeats, 0.0);
    parallelFor(got.size(), [&](std::size_t i) {
        got[i] = runner.baselineIpc(cfg, workloads[i % kWorkloads]);
    });

    ExperimentRunner fresh;
    for (std::size_t w = 0; w < kWorkloads; ++w) {
        double expect = fresh.baselineIpc(cfg, workloads[w]);
        EXPECT_GT(expect, 0.0);
        for (std::size_t r = 0; r < kRepeats; ++r)
            EXPECT_DOUBLE_EQ(got[r * kWorkloads + w], expect)
                << "workload " << workloads[w].name;
    }
}

TEST_F(RunnerTest, SpeedupsDeterministicRegardlessOfThreading)
{
    // speedups() fans the workloads out over hardware threads; each
    // simulation is self-contained, so the result must be exactly
    // the serial reference no matter how the indices interleave.
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 6);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);

    auto rows = runner.speedups(cfg, subset);
    ASSERT_EQ(rows.size(), subset.size());

    ExperimentRunner serial;
    for (std::size_t i = 0; i < subset.size(); ++i) {
        double base = serial.baselineIpc(cfg, subset[i]);
        SimResult res = serial.runOne(cfg, subset[i]);
        double expect = base > 0.0 ? res.ipc() / base : 1.0;
        EXPECT_DOUBLE_EQ(rows[i].speedup, expect)
            << subset[i].name;
    }

    // And a second parallel pass reproduces the first exactly.
    auto again = runner.speedups(cfg, subset);
    for (std::size_t i = 0; i < subset.size(); ++i)
        EXPECT_DOUBLE_EQ(rows[i].speedup, again[i].speedup);
}

TEST(ParallelFor, CoversAllIndicesOnce)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesEmptyAndSingle)
{
    parallelFor(0, [](std::size_t) { FAIL(); });
    int count = 0;
    parallelFor(1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 1);
}

TEST(ParallelFor, PoolIsPersistentAcrossCalls)
{
    // parallelFor is backed by a lazily-created persistent pool:
    // back-to-back calls must reuse the same worker threads rather
    // than spawning fresh ones per call.
    ThreadPool &pool = ThreadPool::instance();
    unsigned workers_before = pool.workerCount();

    std::mutex mtx;
    std::set<std::thread::id> seen;
    for (int round = 0; round < 8; ++round) {
        parallelFor(64, [&](std::size_t) {
            std::lock_guard<std::mutex> lock(mtx);
            seen.insert(std::this_thread::get_id());
        });
    }
    // Every executing thread across all rounds is either a pool
    // worker or the caller.
    EXPECT_LE(seen.size(), static_cast<std::size_t>(
                               pool.workerCount() + 1));
    EXPECT_EQ(pool.workerCount(), workers_before)
        << "repeated calls must not grow the pool";
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock)
{
    // A parallelFor issued from inside a pool worker must complete
    // (it runs serially inline on that worker) and still cover
    // every index exactly once.
    const std::size_t outer = 6, inner = 17;
    std::vector<std::atomic<int>> hits(outer * inner);
    parallelFor(outer, [&](std::size_t i) {
        parallelFor(inner, [&](std::size_t j) {
            ++hits[i * inner + j];
        });
    });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, SequentialCallsSeeAllPriorWrites)
{
    // The completion handshake must publish worker writes to the
    // caller before run() returns.
    std::vector<int> data(1000, 0);
    parallelFor(data.size(), [&](std::size_t i) {
        data[i] = static_cast<int>(i) + 1;
    });
    long long sum = 0;
    for (int v : data)
        sum += v;
    EXPECT_EQ(sum, 1000LL * 1001 / 2);
}

TEST_F(RunnerTest, ConcurrentWarmBaselineReadsAreSharedLockFast)
{
    // After one cold miss fills the cache, a storm of concurrent
    // readers (shared_lock path) must all observe the same value.
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    double expect = runner.baselineIpc(cfg, workloads[0]);
    std::vector<double> got(128, 0.0);
    parallelFor(got.size(), [&](std::size_t i) {
        got[i] = runner.baselineIpc(cfg, workloads[0]);
    });
    for (double v : got)
        EXPECT_DOUBLE_EQ(v, expect);
}

TEST(ParallelFor, ManyMoreIndicesThanThreads)
{
    // Work-stealing via the shared atomic counter must cover a range
    // far larger than the pool exactly once, and the call must not
    // return before every index ran.
    const std::size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> done{0};
    parallelFor(n, [&](std::size_t i) {
        ++hits[i];
        ++done;
    });
    EXPECT_EQ(done.load(), n);
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

} // namespace
} // namespace athena
