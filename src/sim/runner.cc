/**
 * @file
 * ExperimentRunner implementation.
 */

#include "sim/runner.hh"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/stats.hh"
#include "sim/thread_pool.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

/** Warmup-snapshot cache directory ("" = caching disabled). */
std::string
snapshotDir()
{
    const char *v = std::getenv("ATHENA_SNAPSHOT_DIR");
    return v && *v ? v : "";
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Order-sensitive combination of a mix's per-core workload hashes
 *  (core assignment matters: the mix [a,b] is not the mix [b,a]). */
std::uint64_t
mixKey(const std::vector<WorkloadSpec> &specs)
{
    std::uint64_t key = 1469598103934665603ull;
    for (const WorkloadSpec &s : specs) {
        key ^= workloadKey(s);
        key *= 1099511628211ull;
    }
    return key;
}

} // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    ThreadPool::instance().run(n, fn);
}

RunBudget
RunBudget::fromEnv()
{
    RunBudget b;
    b.simInstructions = envUnsigned("ATHENA_SIM_INSTR", b.simInstructions);
    b.warmupInstructions =
        envUnsigned("ATHENA_WARMUP_INSTR", b.warmupInstructions);
    b.mcSimInstructions =
        envUnsigned("ATHENA_MC_INSTR", b.mcSimInstructions);
    b.mcWarmupInstructions =
        envUnsigned("ATHENA_MC_WARMUP", b.mcWarmupInstructions);
    return b;
}

ExperimentRunner::ExperimentRunner(const RunBudget &run_budget)
    : budget(run_budget)
{}

SimResult
ExperimentRunner::runCached(const SystemConfig &config,
                            const std::vector<WorkloadSpec> &specs,
                            std::uint64_t measured,
                            std::uint64_t warm,
                            const std::string &cache_key) const
{
    const std::string dir = snapshotDir();
    if (!dir.empty() && warm > 0) {
        // Warmup-snapshot cache: keyed strictly by content (see
        // the callers' key construction) — a hit is guaranteed to
        // be the exact state a fresh run would reach at its warmup
        // boundary.
        const std::string path = dir + "/" + cache_key + ".asnp";
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            try {
                Simulator sim(config, specs, path);
                RunPlan plan;
                plan.measured = measured;
                plan.warmup = warm;
                return sim.run(plan);
            } catch (const SnapshotError &) {
                // Stale or corrupt cache entry (e.g. written by an
                // older format version): fall through to a fresh
                // run, which overwrites it.
            }
        }
        Simulator sim(config, specs);
        warmupSimulated.fetch_add(warm * specs.size(),
                                  std::memory_order_relaxed);
        // Write-to-temp + atomic rename so concurrent sweep workers
        // never observe (or resume from) a half-written snapshot.
        static std::atomic<std::uint64_t> tmpSeq{0};
        const std::string tmp =
            path + ".tmp" +
            std::to_string(
                tmpSeq.fetch_add(1, std::memory_order_relaxed));
        RunPlan plan;
        plan.measured = measured;
        plan.warmup = warm;
        plan.snapshotAfterWarmup = tmp;
        SimResult res = sim.run(plan);
        std::rename(tmp.c_str(), path.c_str());
        return res;
    }

    Simulator sim(config, specs);
    warmupSimulated.fetch_add(warm * specs.size(),
                              std::memory_order_relaxed);
    RunPlan plan;
    plan.measured = measured;
    plan.warmup = warm;
    return sim.run(plan);
}

SimResult
ExperimentRunner::runOne(const SystemConfig &config,
                         const WorkloadSpec &spec) const
{
    // Key: config hash, workload spec hash, warmup length
    // (unchanged from when runOne carried the cache inline, so
    // existing cache directories stay valid).
    const std::uint64_t warm = budget.warmupInstructions;
    return runCached(config, {spec}, budget.simInstructions, warm,
                     hex64(config.configKey()) + "-" +
                         hex64(workloadKey(spec)) + "-" +
                         std::to_string(warm));
}

SimResult
ExperimentRunner::runMix(const SystemConfig &config,
                         const std::vector<WorkloadSpec> &specs) const
{
    // Mix key: config hash, core count, mixKey and the mix warmup
    // length.
    const std::uint64_t warm = budget.mcWarmupInstructions;
    return runCached(config, specs, budget.mcSimInstructions, warm,
                     hex64(config.configKey()) + "-mix" +
                         std::to_string(specs.size()) + "-" +
                         hex64(mixKey(specs)) + "-" +
                         std::to_string(warm));
}

SimResult
ExperimentRunner::memoMix(const SystemConfig &config,
                          const std::vector<WorkloadSpec> &specs)
{
    const MixCacheKey key{mixKey(specs), specs.size(),
                          config.configKey()};
    {
        std::shared_lock<std::shared_mutex> lock(cacheMutex);
        auto it = mixCache.find(key);
        if (it != mixCache.end())
            return it->second;
    }
    SimResult res = runMix(config, specs);
    std::unique_lock<std::shared_mutex> lock(cacheMutex);
    return mixCache.try_emplace(key, std::move(res)).first->second;
}

SimResult
ExperimentRunner::memoRun(const SystemConfig &config,
                          const WorkloadSpec &spec)
{
    const auto key = std::make_pair(workloadKey(spec), config.configKey());
    {
        std::shared_lock<std::shared_mutex> lock(cacheMutex);
        auto it = resultCache.find(key);
        if (it != resultCache.end())
            return it->second;
    }
    SimResult res = runOne(config, spec);
    std::unique_lock<std::shared_mutex> lock(cacheMutex);
    return resultCache.try_emplace(key, std::move(res)).first->second;
}

double
ExperimentRunner::baselineIpc(const SystemConfig &config,
                              const WorkloadSpec &spec)
{
    SystemConfig base = config;
    base.policy = PolicyKind::kAllOff;
    return memoRun(base, spec).ipc();
}

std::vector<SpeedupRow>
ExperimentRunner::speedups(const SystemConfig &config,
                           const std::vector<WorkloadSpec> &specs)
{
    // Baseline and policy runs are *separate* work items (even
    // indices baseline, odd indices policy), so a worker never
    // serializes a workload's baseline behind its policy run:
    // cold baselines for some workloads overlap with policy runs
    // for others, and memoized runs cost one shared-lock lookup.
    // An all-off config is its own baseline: only the policy items
    // run then, so the two never race to simulate the same key.
    SystemConfig base_cfg = config;
    base_cfg.policy = PolicyKind::kAllOff;
    const bool own_baseline = base_cfg.configKey() == config.configKey();
    std::vector<SpeedupRow> rows(specs.size());
    std::vector<double> base(specs.size(), 0.0);
    parallelFor(2 * specs.size(), [&](std::size_t k) {
        const std::size_t i = k >> 1;
        const WorkloadSpec &spec = specs[i];
        if ((k & 1) == 0) {
            if (!own_baseline)
                base[i] = memoRun(base_cfg, spec).ipc();
            return;
        }
        SpeedupRow row;
        row.workload = spec.name;
        row.suite = spec.suite;
        row.result = memoRun(config, spec);
        rows[i] = std::move(row);
    });
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (own_baseline)
            base[i] = rows[i].result.ipc();
        rows[i].baselineIpc = base[i];
        rows[i].speedup = base[i] > 0.0
                              ? rows[i].result.ipc() / base[i]
                              : 1.0;
    }
    return rows;
}

std::set<std::string>
ExperimentRunner::adverseSet(const SystemConfig &base_config,
                             const std::vector<WorkloadSpec> &specs)
{
    SystemConfig pf_only = base_config;
    pf_only.policy = PolicyKind::kPfOnly;
    std::uint64_t key = pf_only.configKey();
    {
        std::shared_lock<std::shared_mutex> lock(cacheMutex);
        auto it = adverseCache.find(key);
        if (it != adverseCache.end())
            return it->second;
    }
    auto rows = speedups(pf_only, specs);
    std::set<std::string> adverse;
    for (const auto &row : rows) {
        if (row.speedup < 1.0)
            adverse.insert(row.workload);
    }
    std::unique_lock<std::shared_mutex> lock(cacheMutex);
    adverseCache[key] = adverse;
    return adverse;
}

CategorySummary
ExperimentRunner::summarize(const std::vector<SpeedupRow> &rows,
                            const std::set<std::string> &adverse)
{
    std::vector<double> spec, parsec, ligra, cvp, adv, fri, all;
    for (const auto &row : rows) {
        all.push_back(row.speedup);
        switch (row.suite) {
          case Suite::kSpec06:
          case Suite::kSpec17:
            spec.push_back(row.speedup);
            break;
          case Suite::kParsec:
            parsec.push_back(row.speedup);
            break;
          case Suite::kLigra:
            ligra.push_back(row.speedup);
            break;
          case Suite::kCvp:
            cvp.push_back(row.speedup);
            break;
          default:
            break;
        }
        if (adverse.count(row.workload))
            adv.push_back(row.speedup);
        else
            fri.push_back(row.speedup);
    }
    CategorySummary s;
    s.spec = geomean(spec);
    s.parsec = geomean(parsec);
    s.ligra = geomean(ligra);
    s.cvp = geomean(cvp);
    s.adverse = geomean(adv);
    s.friendly = geomean(fri);
    s.overall = geomean(all);
    return s;
}

double
ExperimentRunner::mixSpeedup(const SystemConfig &config,
                             const std::vector<WorkloadSpec> &mix_specs)
{
    SystemConfig base = config;
    base.policy = PolicyKind::kAllOff;

    SimResult base_res = memoMix(base, mix_specs);
    SimResult res = memoMix(config, mix_specs);

    std::vector<double> per_core;
    for (std::size_t c = 0; c < res.cores.size(); ++c) {
        double b = base_res.cores[c].ipc;
        per_core.push_back(b > 0.0 ? res.cores[c].ipc / b : 1.0);
    }
    return geomean(per_core);
}

} // namespace athena
