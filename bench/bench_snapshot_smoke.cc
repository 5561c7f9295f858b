/**
 * @file
 * Snapshot smoke check: snapshots a run at the warmup boundary,
 * resumes it, and diffs the full SimResult against the
 * straight-through run — exact counter equality, exit nonzero on
 * any mismatch. Covers a single-core Athena config and a 4-core
 * mix, then exercises the ExperimentRunner warmup-snapshot cache
 * (second sweep must simulate zero warmup instructions and
 * reproduce the first sweep's rows bit-identically).
 *
 * Knobs:
 *  - ATHENA_SIM_INSTR / ATHENA_WARMUP_INSTR  run lengths
 *  - ATHENA_BENCH_JSON   output path
 *                        (default BENCH_snapshot_smoke.json)
 *
 * The cache leg manages its own ATHENA_SNAPSHOT_DIR under the
 * system temp directory and removes it on exit.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/zoo.hh"

namespace
{

using namespace athena;

int mismatches = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++mismatches;
        std::cerr << "MISMATCH: " << what << "\n";
    }
}

template <typename T>
void
checkEq(const T &a, const T &b, const std::string &what)
{
    check(a == b, what);
}

/** Exact equality of every counter in two SimResults. */
void
diffResults(const SimResult &a, const SimResult &b,
            const std::string &ctx)
{
    checkEq(a.cores.size(), b.cores.size(), ctx + " core count");
    if (a.cores.size() != b.cores.size())
        return;
    for (unsigned c = 0; c < a.cores.size(); ++c) {
        const SimResult::PerCore &x = a.cores[c];
        const SimResult::PerCore &y = b.cores[c];
        const std::string p = ctx + " c" + std::to_string(c) + " ";
        checkEq(x.instructions, y.instructions, p + "instructions");
        checkEq(x.cycles, y.cycles, p + "cycles");
        checkEq(x.completedInstructions, y.completedInstructions,
                p + "completedInstructions");
        checkEq(x.streamExhausted, y.streamExhausted,
                p + "streamExhausted");
        checkEq(x.ipc, y.ipc, p + "ipc");
        checkEq(x.loads, y.loads, p + "loads");
        checkEq(x.stores, y.stores, p + "stores");
        checkEq(x.branchMispredicts, y.branchMispredicts,
                p + "branchMispredicts");
        checkEq(x.llcMisses, y.llcMisses, p + "llcMisses");
        checkEq(x.llcMissLatency, y.llcMissLatency,
                p + "llcMissLatency");
        for (unsigned s = 0; s < x.pf.size(); ++s) {
            const std::string q = p + "pf" + std::to_string(s) + " ";
            checkEq(x.pf[s].issued, y.pf[s].issued, q + "issued");
            checkEq(x.pf[s].used, y.pf[s].used, q + "used");
            checkEq(x.pf[s].usedTimely, y.pf[s].usedTimely,
                    q + "usedTimely");
            checkEq(x.pf[s].uselessEvictions,
                    y.pf[s].uselessEvictions, q + "uselessEvictions");
            checkEq(x.pf[s].fillsFromDram, y.pf[s].fillsFromDram,
                    q + "fillsFromDram");
            checkEq(x.pf[s].fillsFromDramUnused,
                    y.pf[s].fillsFromDramUnused,
                    q + "fillsFromDramUnused");
        }
        checkEq(x.ocpPredictions, y.ocpPredictions,
                p + "ocpPredictions");
        checkEq(x.ocpCorrect, y.ocpCorrect, p + "ocpCorrect");
        checkEq(x.actionHistogram, y.actionHistogram,
                p + "actionHistogram");
    }
    checkEq(a.dram.demandRequests, b.dram.demandRequests,
            ctx + " dram.demandRequests");
    checkEq(a.dram.prefetchRequests, b.dram.prefetchRequests,
            ctx + " dram.prefetchRequests");
    checkEq(a.dram.ocpRequests, b.dram.ocpRequests,
            ctx + " dram.ocpRequests");
    checkEq(a.dram.rowHits, b.dram.rowHits, ctx + " dram.rowHits");
    checkEq(a.dram.rowMisses, b.dram.rowMisses,
            ctx + " dram.rowMisses");
    checkEq(a.dram.busBusyCycles, b.dram.busBusyCycles,
            ctx + " dram.busBusyCycles");
    checkEq(a.busUtilization, b.busUtilization,
            ctx + " busUtilization");
}

/** Straight-through vs. snapshot-at-warmup + resume. */
void
smokeResume(const SystemConfig &cfg,
            const std::vector<WorkloadSpec> &specs,
            std::uint64_t measured, std::uint64_t warmup,
            const std::string &ctx)
{
    const int before = mismatches;
    RunPlan plan;
    plan.measured = measured;
    plan.warmup = warmup;

    Simulator straight(cfg, specs);
    SimResult want = straight.run(plan);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("smoke_" + ctx + ".asnp"))
            .string();
    RunPlan snap_plan = plan;
    snap_plan.snapshotAfterWarmup = path;
    Simulator source(cfg, specs);
    SimResult via = source.run(snap_plan);
    diffResults(want, via, ctx + " (snapshotting run)");

    Simulator resumed(cfg, specs, path);
    SimResult got = resumed.run(plan);
    diffResults(want, got, ctx + " (resumed run)");
    std::filesystem::remove(path);
    std::cout << ctx << ": ipc " << want.ipc() << " resume "
              << (mismatches > before ? "DIFFERS" : "identical")
              << "\n";
}

} // namespace

int
main()
{
    const std::uint64_t instr = envUnsigned("ATHENA_SIM_INSTR", 60000);
    const std::uint64_t warm = envUnsigned("ATHENA_WARMUP_INSTR", 15000);
    const char *json_env = std::getenv("ATHENA_BENCH_JSON");
    std::string json_path = json_env && *json_env
                                ? json_env
                                : "BENCH_snapshot_smoke.json";

    auto workloads = evalWorkloads();

    SystemConfig single =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    smokeResume(single, {workloads.front()}, instr, warm, "single");

    SystemConfig quad =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    quad.cores = 4;
    std::vector<WorkloadSpec> mix(workloads.begin(),
                                  workloads.begin() + 4);
    smokeResume(quad, mix, instr / 3, warm / 3, "quad");

    // Warmup-snapshot cache: a second identical sweep must resume
    // from the cached snapshots (zero warmup instructions) and
    // reproduce the first sweep's rows exactly.
    const std::string cache_dir =
        (std::filesystem::temp_directory_path() / "smoke_snap_cache")
            .string();
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
    setenv("ATHENA_SNAPSHOT_DIR", cache_dir.c_str(), 1);

    RunBudget budget;
    budget.simInstructions = instr;
    budget.warmupInstructions = warm;
    std::vector<WorkloadSpec> sweep(workloads.begin(),
                                    workloads.begin() + 3);

    ExperimentRunner cold(budget);
    auto cold_rows = cold.speedups(single, sweep);
    ExperimentRunner hot(budget);
    auto hot_rows = hot.speedups(single, sweep);
    checkEq(hot.warmupInstructionsSimulated(),
            std::uint64_t{0}, "cache: hot sweep warmup count");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        checkEq(cold_rows[i].result.ipc(), hot_rows[i].result.ipc(),
                "cache: " + sweep[i].name + " ipc");
        checkEq(cold_rows[i].baselineIpc, hot_rows[i].baselineIpc,
                "cache: " + sweep[i].name + " baselineIpc");
        checkEq(cold_rows[i].speedup, hot_rows[i].speedup,
                "cache: " + sweep[i].name + " speedup");
    }
    std::cout << "cache: cold warmup "
              << cold.warmupInstructionsSimulated() << ", hot warmup "
              << hot.warmupInstructionsSimulated() << "\n";
    unsetenv("ATHENA_SNAPSHOT_DIR");
    std::filesystem::remove_all(cache_dir);

    std::ofstream json(json_path);
    if (json) {
        json << "{\n  \"benchmark\": \"bench_snapshot_smoke\",\n"
             << "  \"sim_instructions\": " << instr
             << ",\n  \"warmup_instructions\": " << warm
             << ",\n  \"mismatches\": " << mismatches << "\n}\n";
        std::cout << "-> " << json_path << "\n";
    }

    if (mismatches) {
        std::cerr << mismatches
                  << " counter mismatch(es) between straight-through "
                     "and resumed runs\n";
        return 1;
    }
    std::cout << "snapshot smoke: all runs bit-identical\n";
    return 0;
}
