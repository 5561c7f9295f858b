/**
 * @file
 * Simulation-engine throughput harness: drives Simulator end-to-end
 * over a matrix of configs x workloads x core counts and reports
 * simulated-accesses/sec (the engine's hot-path rate) plus
 * simulated-instructions/sec into a machine-readable
 * BENCH_throughput.json.
 *
 * This is the perf trajectory every engine-speed PR is judged
 * against. The matrix covers the distinct hot paths: cache-resident
 * streaming (prefetcher traffic dominates), DRAM-bound pointer
 * chasing (OCP + DRAM model dominate), the full learning stack
 * (Athena agent in the loop, including a short-epoch policy-heavy
 * case and a two-prefetcher CD3 case), and multi-core mixes — 4-core
 * synthetic, the 8-core Fig-16 shape, a 4-core trace-replay mix
 * (the multi-core stepping engines plus shared LLC/DRAM contention),
 * and the 16/32-core sharded presets (banked LLC + channeled DRAM
 * via makeManyCoreConfig — the scaled shared-memory plane).
 *
 * Measurement modes:
 *  - Repeats: every case runs ATHENA_BENCH_REPEATS times (default
 *    3) and reports the best (minimum-wall) run, which is robust to
 *    scheduler noise on shared hosts.
 *  - A/B interleave: when ATHENA_AB_BASELINE names a pinned
 *    baseline bench binary (e.g. built from the previous release),
 *    each of our repeats is interleaved with one baseline run —
 *    A B A B ... — so slow drift of the host (thermal, co-tenants)
 *    cancels out of the comparison. The JSON gains an "ab" block
 *    with the baseline rate and the measured speedup.
 *  - Parallel stepping A/B: every multi-core case additionally runs
 *    sequential-vs-parallel (RunPlan::stepThreads 1 vs cores) and
 *    the JSON gains a "parallel_stepping" block with per-case
 *    seq/par wall times and the speedup. Only meaningful on
 *    multi-core hosts; a 1-CPU box reports <= 1x by construction
 *    (results are bit-identical either way — see
 *    tests/test_parallel_step.cc).
 *
 * Knobs:
 *  - ATHENA_SIM_INSTR      measured instructions per run (default 2M)
 *  - ATHENA_WARMUP_INSTR   warmup instructions per run (default 50k)
 *  - ATHENA_BENCH_REPEATS  repeats per case (default 3; 1 in CI)
 *  - ATHENA_AB_BASELINE    path to a pinned baseline bench binary
 *  - ATHENA_BENCH_JSON     output path (default BENCH_throughput.json)
 *  - ATHENA_BENCH_FILTER   comma-separated list of substrings: run
 *                          only cases whose name contains at least
 *                          one of them (CI smoke runs)
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/trace_file.hh"
#include "trace/zoo.hh"

namespace
{

using namespace athena;

struct Case
{
    std::string name;
    SystemConfig cfg;
    std::vector<WorkloadSpec> specs; ///< One per core.
    /** Per-core instruction scale (multi-core cases run shorter
     *  per core so total simulated work stays comparable). */
    unsigned instrDivisor = 1;
    /**
     * Part of the PR 1 regression-anchor quartet. The A/B speedup
     * is computed over anchor cases only, so a baseline binary
     * whose matrix predates the expansion is compared
     * like-for-like rather than against a different case mix.
     */
    bool abAnchor = false;
};

struct CaseResult
{
    std::string name;
    unsigned cores = 1;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    double wallSeconds = 0.0;
    double ipc = 0.0;
};

/**
 * Run one case. @p step_threads pins the stepping engine for the
 * sequential-vs-parallel A/B (0 = the auto default users get —
 * parallel for multi-core cases when the host is wide enough).
 */
CaseResult
runCase(const Case &c, std::uint64_t instr, std::uint64_t warmup,
        unsigned step_threads = 0)
{
    Simulator sim(c.cfg, c.specs);
    RunPlan plan(instr / c.instrDivisor, warmup / c.instrDivisor);
    plan.stepThreads = step_threads;
    auto t0 = std::chrono::steady_clock::now();
    SimResult res = sim.run(plan);
    auto t1 = std::chrono::steady_clock::now();

    CaseResult out;
    out.name = c.name;
    out.cores = c.cfg.cores;
    std::uint64_t cycles_max = 1;
    for (const auto &core : res.cores) {
        out.instructions += core.instructions;
        out.accesses += core.loads + core.stores;
        cycles_max = std::max(cycles_max, core.cycles);
    }
    out.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.ipc = static_cast<double>(out.instructions) /
              static_cast<double>(cycles_max);
    return out;
}

/** Best (min-wall) observation of one baseline case across the
 *  interleaved repeats. */
struct BaselineCase
{
    std::uint64_t accesses = 0;
    double wallSeconds = 0.0;
    unsigned cores = 1;
};

/**
 * Run a pinned baseline binary once and fold its per-case results
 * (minimum wall per case) into @p best_cases. Per-case best-of is
 * what our own matrix reports, so the two sides of the A/B stay
 * symmetric and equally robust to scheduler noise. Returns true if
 * the baseline emitted the expanded-matrix schema (has per-case
 * "cores"), false for the PR 1 schema (single-core quartet only).
 */
bool
runBaselineOnce(const std::string &binary, std::uint64_t instr,
                std::uint64_t warmup,
                std::map<std::string, BaselineCase> &best_cases)
{
    std::string tmp = "/tmp/athena_ab_baseline.json";
    std::ostringstream cmd;
    cmd << "ATHENA_BENCH_REPEATS=1"
        << " ATHENA_AB_BASELINE="
        << " ATHENA_SIM_INSTR=" << instr
        << " ATHENA_WARMUP_INSTR=" << warmup
        << " ATHENA_BENCH_JSON=" << tmp << " " << binary
        << " > /dev/null 2>&1";
    if (std::system(cmd.str().c_str()) != 0) {
        std::cerr << "A/B baseline run failed: " << binary << "\n";
        return false;
    }
    std::ifstream in(tmp);
    std::string line;
    bool new_schema = false;
    while (std::getline(in, line)) {
        auto field = [&line](const char *key, double fallback) {
            auto pos = line.find(key);
            if (pos == std::string::npos)
                return fallback;
            pos = line.find(':', pos);
            return pos == std::string::npos
                       ? fallback
                       : std::strtod(line.c_str() + pos + 1,
                                     nullptr);
        };
        auto name_pos = line.find("\"name\":");
        if (name_pos == std::string::npos)
            continue;
        auto q0 = line.find('"', name_pos + 7);
        auto q1 = line.find('"', q0 + 1);
        if (q0 == std::string::npos || q1 == std::string::npos)
            continue;
        std::string name = line.substr(q0 + 1, q1 - q0 - 1);
        BaselineCase c;
        c.accesses =
            static_cast<std::uint64_t>(field("\"accesses\"", 0.0));
        c.wallSeconds = field("\"wall_seconds\"", 0.0);
        double cores = field("\"cores\"", 0.0);
        if (cores > 0.0) {
            c.cores = static_cast<unsigned>(cores);
            new_schema = true;
        }
        if (c.wallSeconds <= 0.0)
            continue;
        auto it = best_cases.find(name);
        if (it == best_cases.end() ||
            c.wallSeconds < it->second.wallSeconds)
            best_cases[name] = c;
    }
    return new_schema;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t instr = envUnsigned("ATHENA_SIM_INSTR", 2000000);
    std::uint64_t warmup = envUnsigned("ATHENA_WARMUP_INSTR", 50000);
    auto repeats =
        static_cast<unsigned>(envUnsigned("ATHENA_BENCH_REPEATS", 3));
    if (repeats == 0)
        repeats = 1;
    const char *ab_env = std::getenv("ATHENA_AB_BASELINE");
    std::string ab_baseline = ab_env ? ab_env : "";
    const char *json_env = std::getenv("ATHENA_BENCH_JSON");
    std::string json_path =
        argc > 1 ? argv[1]
                 : (json_env && *json_env ? json_env
                                          : "BENCH_throughput.json");

    auto workloads = evalWorkloads();
    const WorkloadSpec &stream = workloads.front();
    const WorkloadSpec *chase = &workloads.front();
    for (const WorkloadSpec &w : workloads) {
        if (w.name.find("mcf") != std::string::npos ||
            w.name.find("chase") != std::string::npos) {
            chase = &w;
            break;
        }
    }
    // A 4-core mix of distinct workloads (fig15-style stepping).
    std::vector<WorkloadSpec> mix4;
    for (std::size_t i = 0; mix4.size() < 4 && i < workloads.size();
         i += workloads.size() / 4)
        mix4.push_back(workloads[i]);
    while (mix4.size() < 4)
        mix4.push_back(workloads.front());
    // An 8-core mix spread across the zoo (fig16-style stepping).
    std::vector<WorkloadSpec> mix8;
    for (std::size_t i = 0; i < 8; ++i)
        mix8.push_back(workloads[(i * workloads.size()) / 8]);

    std::vector<Case> cases;
    auto add_sc = [&](std::string name, SystemConfig cfg,
                      const WorkloadSpec &spec,
                      bool anchor = false) {
        cases.push_back(
            {std::move(name), std::move(cfg), {spec}, 1, anchor});
    };
    // Single-core: the PR 1 quartet (the regression anchor).
    add_sc("cd1_naive_" + stream.name,
           makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive),
           stream, true);
    add_sc("cd1_naive_" + chase->name,
           makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive),
           *chase, true);
    add_sc("cd1_athena_" + stream.name,
           makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena),
           stream, true);
    add_sc("cd4_athena_" + chase->name,
           makeDesignConfig(CacheDesign::kCd4, PolicyKind::kAthena),
           *chase, true);
    // Athena-policy-heavy: 500-instruction epochs run the full
    // agent decision loop ~16x more often per simulated
    // instruction.
    {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        cfg.epochInstructions = 500;
        add_sc("cd1_athena_epoch500_" + stream.name, cfg, stream);
    }
    // Two coordinated L2C prefetchers (CD3) under Athena.
    add_sc("cd3_athena_" + stream.name,
           makeDesignConfig(CacheDesign::kCd3, PolicyKind::kAthena),
           stream);
    // 4-core mixes: the multi-core step picker inner loop.
    {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
        cfg.cores = 4;
        cases.push_back({"mc4_cd1_naive_mix", cfg, mix4, 4});
        SystemConfig acfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        acfg.cores = 4;
        cases.push_back({"mc4_cd1_athena_mix", acfg, mix4, 4});
        // Policy-heavy multi-core: 500-instruction epochs on every
        // core — the agent + predictor inference load, under
        // multi-core stepping.
        SystemConfig ecfg = acfg;
        ecfg.epochInstructions = 500;
        cases.push_back(
            {"mc4_cd1_athena_epoch500_mix", ecfg, mix4, 4});
    }
    // DRAM-pressure case: two L2C prefetchers (CD3) x 4 cores at a
    // bandwidth-starved 1.6 GB/s/core — prefetch bursts pile onto
    // the shared controller queue, so the batched drain kernel is
    // the dominant service path. This is the guard for the
    // request-queue refactor of the memory hierarchy.
    {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd3, PolicyKind::kNaive);
        cfg.cores = 4;
        cfg.bandwidthGBps = 1.6;
        cases.push_back({"mc4_cd3_naive_lowbw_mix", cfg, mix4, 4});
    }
    // 8-core Fig-16-style case: the configuration the parallel
    // stepping engine exists for — eight private hierarchies
    // contending on the shared LLC/DRAM under the full Athena
    // learning stack.
    {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        cfg.cores = 8;
        cases.push_back({"mc8_cd1_athena_fig16_mix", cfg, mix8, 8});
    }
    // 16/32-core sharded presets: the scaled shared-memory plane
    // (banked LLC + channeled DRAM). These are the configurations
    // the sharding refactor exists for — wide parallel stepping
    // with per-bank/per-channel shared state. Per-core budget
    // shrinks with the core count so total simulated work stays
    // comparable to the rest of the matrix.
    {
        auto strided = [&](std::size_t n) {
            std::vector<WorkloadSpec> mix;
            for (std::size_t i = 0; i < n; ++i)
                mix.push_back(workloads[(i * workloads.size()) / n]);
            return mix;
        };
        cases.push_back({"mc16_cd1_athena_sharded_mix",
                         makeManyCoreConfig(16, CacheDesign::kCd1,
                                            PolicyKind::kAthena),
                         strided(16), 16});
        cases.push_back({"mc32_cd1_naive_sharded_mix",
                         makeManyCoreConfig(32), strided(32), 32});
    }
    // Trace replay smoke: the checked-in sample looped infinitely,
    // so the TraceFile decode + replay refill path sits in the
    // guarded throughput aggregate alongside the synthetic kernels.
    // The sample resolves via ATHENA_TRACE_SMOKE, the working
    // directory, then the compiled-in source tree. An unresolvable
    // sample is a hard error: silently dropping the fastest case
    // would shrink the aggregate and trip the regression guard with
    // a phantom regression.
    {
        const char *trace_env = std::getenv("ATHENA_TRACE_SMOKE");
        std::string trace_path;
        if (trace_env && *trace_env) {
            trace_path = trace_env; // explicit choice: no fallback
        } else {
            trace_path = "tests/data/sample_mix.bin";
            if (!std::ifstream(trace_path).good()) {
                trace_path = std::string(ATHENA_SOURCE_DIR) +
                             "/tests/data/sample_mix.bin";
            }
        }
        if (!std::ifstream(trace_path).good()) {
            std::cerr << "cannot resolve trace smoke sample: "
                      << trace_path
                      << " (set ATHENA_TRACE_SMOKE)\n";
            return 1;
        }
        WorkloadSpec replay =
            traceWorkloadSpec("sample_mix.bin", trace_path, 0);
        add_sc("cd1_naive_trace_replay",
               makeDesignConfig(CacheDesign::kCd1,
                                PolicyKind::kNaive),
               replay);
        // 4-core trace-replay mix: the finite-stream replay refill
        // path under multi-core stepping. Cores alternate the
        // binary sample with its text sibling when that resolves
        // (distinct decode paths), else replay the same sample.
        {
            WorkloadSpec alt = replay;
            auto slash = trace_path.find_last_of('/');
            std::string loop_path =
                (slash == std::string::npos
                     ? std::string()
                     : trace_path.substr(0, slash + 1)) +
                "sample_loop.txt";
            if (std::ifstream(loop_path).good()) {
                alt = traceWorkloadSpec("sample_loop.txt",
                                        loop_path, 0);
            }
            SystemConfig cfg = makeDesignConfig(
                CacheDesign::kCd1, PolicyKind::kNaive);
            cfg.cores = 4;
            cases.push_back({"mc4_cd1_naive_trace_replay_mix", cfg,
                             {replay, alt, replay, alt}, 4});
        }
    }

    // Case filter (CI smoke): a comma-separated list of substrings;
    // keep cases whose name contains at least one of them. An empty
    // match is a hard error — a typo'd filter silently benchmarking
    // nothing would look like a perf miracle.
    const char *filter_env = std::getenv("ATHENA_BENCH_FILTER");
    if (filter_env && *filter_env) {
        std::vector<std::string> tokens;
        std::string filter = filter_env;
        for (std::size_t pos = 0; pos <= filter.size();) {
            std::size_t comma = filter.find(',', pos);
            if (comma == std::string::npos)
                comma = filter.size();
            if (comma > pos)
                tokens.push_back(filter.substr(pos, comma - pos));
            pos = comma + 1;
        }
        std::vector<Case> kept;
        for (Case &c : cases) {
            for (const std::string &t : tokens) {
                if (c.name.find(t) != std::string::npos) {
                    kept.push_back(std::move(c));
                    break;
                }
            }
        }
        if (kept.empty()) {
            std::cerr << "ATHENA_BENCH_FILTER='" << filter_env
                      << "' matches no case\n";
            return 1;
        }
        cases = std::move(kept);
    }

    // Interleaved repeats: A(all cases) B(baseline) A B ...
    std::vector<CaseResult> best(cases.size());
    std::map<std::string, BaselineCase> baseline_cases;
    bool baseline_new_schema = false;
    for (unsigned r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
            CaseResult res = runCase(cases[i], instr, warmup);
            if (best[i].name.empty() ||
                res.wallSeconds < best[i].wallSeconds)
                best[i] = res;
        }
        if (!ab_baseline.empty())
            baseline_new_schema |= runBaselineOnce(
                ab_baseline, instr, warmup, baseline_cases);
    }

    // Sequential-vs-parallel stepping A/B over the multi-core
    // cases: each engine is pinned explicitly (stepThreads 1 vs
    // cores) and gets the same best-of-repeats treatment, so the
    // reported speedup is engine-vs-engine on this host rather
    // than engine-vs-committed-baseline across hosts. Both engines
    // produce bit-identical results (tests/test_parallel_step.cc);
    // only wall clock differs. On hosts narrower than the core
    // count the parallel engine time-slices and the "speedup" is
    // honestly below 1 — the number is still reported rather than
    // suppressed.
    struct ParAb
    {
        std::string name;
        unsigned cores = 1;
        double seqWall = 0.0;
        double parWall = 0.0;
    };
    std::vector<ParAb> par_ab;
    for (const Case &c : cases) {
        if (c.cfg.cores < 2)
            continue;
        ParAb row;
        row.name = c.name;
        row.cores = c.cfg.cores;
        for (unsigned r = 0; r < repeats; ++r) {
            double seq = runCase(c, instr, warmup, 1).wallSeconds;
            double par =
                runCase(c, instr, warmup, c.cfg.cores).wallSeconds;
            if (r == 0 || seq < row.seqWall)
                row.seqWall = seq;
            if (r == 0 || par < row.parWall)
                row.parWall = par;
        }
        std::cout << "parallel A/B " << row.name << ": seq "
                  << row.seqWall << " s, par " << row.parWall
                  << " s -> "
                  << (row.parWall > 0.0 ? row.seqWall / row.parWall
                                        : 0.0)
                  << "x\n";
        par_ab.push_back(row);
    }

    // A-side aggregates from per-case bests, mirroring what the
    // baseline side gets below. Like-for-like means intersecting
    // case *names*: a baseline binary whose matrix is smaller than
    // today's (e.g. predates the trace-replay case) contributes —
    // and is compared against — only the cases both sides ran.
    std::uint64_t anchor_accesses = 0, ab_sc_accesses = 0;
    double anchor_wall = 0.0, ab_sc_wall = 0.0;
    std::set<std::string> our_sc_names;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (cases[i].abAnchor) {
            anchor_accesses += best[i].accesses;
            anchor_wall += best[i].wallSeconds;
        }
        if (cases[i].cfg.cores == 1) {
            our_sc_names.insert(cases[i].name);
            if (baseline_cases.count(cases[i].name)) {
                ab_sc_accesses += best[i].accesses;
                ab_sc_wall += best[i].wallSeconds;
            }
        }
    }
    double baseline_rate = 0.0;
    {
        std::uint64_t acc = 0;
        double wall = 0.0;
        for (const auto &[name, c] : baseline_cases) {
            if (c.cores != 1)
                continue; // compare single-core against single-core
            if (baseline_new_schema && !our_sc_names.count(name))
                continue; // intersect both directions
            acc += c.accesses;
            wall += c.wallSeconds;
        }
        if (wall > 0.0)
            baseline_rate = static_cast<double>(acc) / wall;
    }

    std::uint64_t total_instr = 0, total_accesses = 0;
    std::uint64_t sc_accesses = 0, mc_accesses = 0;
    double total_wall = 0.0, sc_wall = 0.0, mc_wall = 0.0;
    for (const CaseResult &res : best) {
        std::cout << res.name << ": "
                  << static_cast<std::uint64_t>(
                         static_cast<double>(res.accesses) /
                         res.wallSeconds)
                  << " accesses/sec (" << res.cores << " core, ipc "
                  << res.ipc << ", " << res.wallSeconds << " s)\n";
        total_instr += res.instructions;
        total_accesses += res.accesses;
        total_wall += res.wallSeconds;
        if (res.cores == 1) {
            sc_accesses += res.accesses;
            sc_wall += res.wallSeconds;
        } else {
            mc_accesses += res.accesses;
            mc_wall += res.wallSeconds;
        }
    }

    auto rate = [](std::uint64_t n, double wall) {
        return wall > 0.0 ? static_cast<double>(n) / wall : 0.0;
    };
    double accesses_per_sec = rate(total_accesses, total_wall);
    double instr_per_sec = rate(total_instr, total_wall);
    double sc_rate = rate(sc_accesses, sc_wall);
    double mc_rate = rate(mc_accesses, mc_wall);

    std::ofstream json(json_path);
    if (!json) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    json << "{\n"
         << "  \"benchmark\": \"bench_throughput\",\n"
         << "  \"sim_instructions\": " << instr << ",\n"
         << "  \"warmup_instructions\": " << warmup << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"accesses_per_sec\": " << accesses_per_sec << ",\n"
         << "  \"instructions_per_sec\": " << instr_per_sec << ",\n"
         << "  \"single_core_accesses_per_sec\": " << sc_rate
         << ",\n"
         << "  \"multi_core_accesses_per_sec\": " << mc_rate
         << ",\n"
         << "  \"wall_seconds\": " << total_wall << ",\n";
    if (!ab_baseline.empty() && baseline_rate > 0.0) {
        // Like-for-like: a new-schema baseline compares the
        // single-core cases both binaries ran (name intersection);
        // an old-schema baseline's matrix was exactly today's
        // anchor quartet.
        double ours =
            baseline_new_schema
                ? (ab_sc_wall > 0.0
                       ? static_cast<double>(ab_sc_accesses) /
                             ab_sc_wall
                       : 0.0)
                : (anchor_wall > 0.0
                       ? static_cast<double>(anchor_accesses) /
                             anchor_wall
                       : 0.0);
        const char *compared = baseline_new_schema
                                   ? "single_core"
                                   : "anchor_quartet";
        json << "  \"ab\": {\"baseline\": \"" << ab_baseline
             << "\", \"baseline_accesses_per_sec\": "
             << baseline_rate << ", \"compared\": \"" << compared
             << "\", \"single_core_speedup\": "
             << ours / baseline_rate << "},\n";
        std::cout << "A/B (" << compared << "): " << ours
                  << " vs baseline " << baseline_rate << " -> "
                  << ours / baseline_rate << "x\n";
    }
    // Field names chosen to not collide with the "accesses" /
    // "wall_seconds" keys the line-oriented A/B baseline parser
    // scans for, so this binary stays usable as a baseline.
    json << "  \"parallel_stepping\": {\"hw_concurrency\": "
         << std::thread::hardware_concurrency()
         << ", \"cases\": [\n";
    for (std::size_t i = 0; i < par_ab.size(); ++i) {
        const ParAb &p = par_ab[i];
        json << "    {\"name\": \"" << p.name << "\", "
             << "\"cores\": " << p.cores << ", "
             << "\"seq_wall_s\": " << p.seqWall << ", "
             << "\"par_wall_s\": " << p.parWall << ", "
             << "\"speedup\": "
             << (p.parWall > 0.0 ? p.seqWall / p.parWall : 0.0)
             << "}" << (i + 1 < par_ab.size() ? "," : "") << "\n";
    }
    json << "  ]},\n";
    json << "  \"cases\": [\n";
    for (std::size_t i = 0; i < best.size(); ++i) {
        const CaseResult &r = best[i];
        json << "    {\"name\": \"" << r.name << "\", "
             << "\"cores\": " << r.cores << ", "
             << "\"instructions\": " << r.instructions << ", "
             << "\"accesses\": " << r.accesses << ", "
             << "\"wall_seconds\": " << r.wallSeconds << ", "
             << "\"ipc\": " << r.ipc << "}"
             << (i + 1 < best.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    std::cout << "TOTAL: "
              << static_cast<std::uint64_t>(accesses_per_sec)
              << " accesses/sec (sc "
              << static_cast<std::uint64_t>(sc_rate) << ", mc "
              << static_cast<std::uint64_t>(mc_rate) << ") over "
              << total_wall << " s -> " << json_path << "\n";
    return 0;
}
