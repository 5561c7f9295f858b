/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--tmp-dir <dir>] [--smoke]
 *   perfbench --digest-selftest
 *   perfbench --repetition --workload <name> --seed <n> [--smoke]
 *
 * Three closed-loop batch workloads, each a fixed job run back to
 * back for about --seconds of host time, every repetition in a
 * process of its own (this program run again with --repetition):
 *
 *   sc_athena_zoo     one core, CD1 Athena (POPET + Pythia), 3.2 GB/s,
 *                     a slice of the eval zoo spanning every archetype
 *   mc4_athena_lowbw  a 4-core mix under CD3 Athena (POPET + SMS +
 *                     Pythia) at 1.6 GB/s, default stepping engine
 *   fig7_sweep        the Fig. 7 coordination-policy sweep over a
 *                     suite-stratified subset of the zoo
 *
 * --trace 0 prints the end-to-end metrics (host time); --trace 1
 * runs the job once untraced, then a traced pass that times calls
 * into each layer from outside (layers.hh) and prints the per-layer
 * metrics. The last stdout line is one JSON object
 * {correct, attempted, failed, metrics}.
 */

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hashing.hh"
#include "common/simd.hh"
#include "layers.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "sim/thread_pool.hh"
#include "trace/zoo.hh"

using namespace athena;
using namespace perfbench;

namespace
{

/**
 * Environment switches that change what the simulator runs (engine,
 * kernels, budgets, caching, debug dumps). Two hosts must never
 * silently measure different engines, so any of them being set is a
 * refusal, not a warning.
 */
constexpr const char *kRefusedEnv[] = {
    "ATHENA_STEP_THREADS", "ATHENA_SIMD",         "ATHENA_INFERENCE_BATCH",
    "ATHENA_SNAPSHOT_DIR", "ATHENA_SIM_INSTR",    "ATHENA_WARMUP_INSTR",
    "ATHENA_MC_INSTR",     "ATHENA_MC_WARMUP",    "ATHENA_PYTHIA_TRACE",
    "ATHENA_AGENT_TRACE",
};

/** Replayed prefix of each stream in the traced run. */
constexpr std::uint64_t kReplayCap = 1000000;

/** Cold set-up samples taken before each repetition of a --trace 0
 *  run; setup_s is the median of all of them. Spread over the run,
 *  they see the same host as the repetitions, not one instant of it. */
constexpr std::size_t kSetupSamplesPerRep = 4;

// ------------------------------------------------------------ workloads

/** sc_athena_zoo: one workload per archetype, friendly and adverse,
 *  mostly-cache-resident (compute) up to footprints far above the
 *  LLC. */
const char *const kScSlice[] = {
    "462.libquantum-714B", // stream, prefetcher-friendly
    "436.cactusADM-732B",  // stride
    "429.mcf-184B",        // pointer chase, prefetcher-adverse
    "483.xalancbmk-127B",  // irregular, prefetcher-adverse
    "PageRank-14B",        // graph scan/gather
    "400.perlbench-50B",   // branchy compute, mostly cache-resident
    "435.gromacs-111B",    // region-spatial
    "450.soplex-247B",     // phased stream/chase
};

/** mc4_athena_lowbw: four distinct archetypes that all reach DRAM. */
const char *const kMc4Mix[] = {
    "470.lbm-1274B",        // stream
    "605.mcf_s-1554B",      // chase
    "BFS-15B",              // graph
    "638.imagick_s-10316B", // region-spatial (SMS bait)
};

/** Every fifth member of each suite: 21 of the 100 workloads. */
constexpr std::size_t kFig7Stride = 5;

/**
 * The eval zoo with each spec's RNG seed derived from the benchmark
 * seed. Archetype parameters (footprints, fractions) are unchanged.
 */
std::vector<WorkloadSpec>
seededZoo(std::uint64_t seed)
{
    std::vector<WorkloadSpec> zoo = evalWorkloads();
    for (WorkloadSpec &s : zoo)
        s.seed = mix64(s.seed ^ mix64(seed + 0x9e3779b97f4a7c15ull)) | 1;
    return zoo;
}

std::vector<WorkloadSpec>
pick(const std::vector<WorkloadSpec> &zoo, const char *const *names,
     std::size_t n)
{
    std::vector<WorkloadSpec> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(findWorkload(zoo, names[i]));
    return out;
}

std::vector<WorkloadSpec>
fig7Subset(const std::vector<WorkloadSpec> &zoo)
{
    std::vector<WorkloadSpec> out;
    std::map<Suite, std::size_t> seen;
    for (const WorkloadSpec &s : zoo) {
        if (seen[s.suite]++ % kFig7Stride == 0)
            out.push_back(s);
    }
    return out;
}

// ------------------------------------------------------ results, checks

/** The simulations of one job execution. */
struct JobResult
{
    /** Every simulation result, in a fixed order (digest, checks). */
    std::vector<SimResult> sims;
    /** The subset the modelled metrics are computed from. */
    std::vector<SimResult> modelled;
    /** Measured / warmup instructions each core was asked for. */
    std::uint64_t measured = 0;
    std::uint64_t warmup = 0;
    /** Fig. 7 overall geomeans (sweeps only). */
    double athenaSpeedup = 0;
    double naiveSpeedup = 0;
    /** Extra job outputs folded into the digest (speedups, sets). */
    std::uint64_t extra = 0;
};

class Hasher
{
  public:
    void
    add(std::uint64_t v)
    {
        h = mix64(h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6)));
    }
    void
    add(double d)
    {
        std::uint64_t b;
        std::memcpy(&b, &d, sizeof b);
        add(b);
    }
    void
    add(const std::string &s)
    {
        for (unsigned char c : s)
            add(static_cast<std::uint64_t>(c));
        add(static_cast<std::uint64_t>(s.size()));
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0x243f6a8885a308d3ull;
};

/** Digest over every field of a SimResult. */
std::uint64_t
digestOf(const SimResult &r)
{
    Hasher h;
    for (const SimResult::PerCore &c : r.cores) {
        h.add(c.workload);
        h.add(c.ipc);
        for (std::uint64_t v :
             {c.instructions, c.cycles, c.completedInstructions,
              static_cast<std::uint64_t>(c.streamExhausted), c.loads,
              c.stores, c.branchMispredicts, c.llcMisses,
              c.llcMissLatency, c.ocpPredictions, c.ocpCorrect})
            h.add(v);
        for (const PrefetcherSlotStats &p : c.pf) {
            for (std::uint64_t v :
                 {p.issued, p.used, p.usedTimely, p.uselessEvictions,
                  p.fillsFromDram, p.fillsFromDramUnused})
                h.add(v);
        }
        for (std::uint64_t a : c.actionHistogram)
            h.add(a);
    }
    for (std::uint64_t v :
         {r.dram.demandRequests, r.dram.prefetchRequests,
          r.dram.ocpRequests, r.dram.rowHits, r.dram.rowMisses,
          r.dram.busBusyCycles})
        h.add(v);
    h.add(r.busUtilization);
    return h.value();
}

std::uint64_t
digestOf(const JobResult &j)
{
    Hasher h;
    for (const SimResult &r : j.sims)
        h.add(digestOf(r));
    h.add(j.extra);
    return h.value();
}

/**
 * Invariants SimResult exposes: per prefetcher slot used <= issued
 * and timely <= used, OCP correct <= predictions, and on synthetic
 * (infinite) streams exactly the requested instruction counts.
 * Returns an empty string when all hold.
 */
std::string
checkInvariants(const SimResult &r, std::uint64_t measured,
                std::uint64_t warmup)
{
    std::ostringstream err;
    for (const SimResult::PerCore &c : r.cores) {
        for (std::size_t s = 0; s < c.pf.size(); ++s) {
            if (c.pf[s].used > c.pf[s].issued)
                err << c.workload << ": slot " << s << " used > issued; ";
            if (c.pf[s].usedTimely > c.pf[s].used)
                err << c.workload << ": slot " << s << " timely > used; ";
        }
        if (c.ocpCorrect > c.ocpPredictions)
            err << c.workload << ": OCP correct > predictions; ";
        if (c.streamExhausted)
            err << c.workload << ": synthetic stream exhausted; ";
        if (c.instructions != measured)
            err << c.workload << ": measured " << c.instructions
                << " != requested " << measured << "; ";
        if (c.completedInstructions != measured + warmup)
            err << c.workload << ": retired " << c.completedInstructions
                << " != " << measured + warmup << "; ";
        if (c.cycles == 0)
            err << c.workload << ": zero cycles; ";
    }
    return err.str();
}

/** Throws std::runtime_error naming the first violated invariant. */
void
checkJob(const JobResult &j)
{
    for (const SimResult &r : j.sims) {
        const std::string e = checkInvariants(r, j.measured, j.warmup);
        if (!e.empty())
            throw std::runtime_error("invariant violated: " + e);
    }
}

// --------------------------------------------------------------- sweeps

/** One ExperimentRunner sweep: adverse split, then policy configs. */
struct Sweep
{
    RunBudget budget;
    SystemConfig classCfg;
    std::vector<SystemConfig> configs;
    std::vector<WorkloadSpec> specs;
};

struct SweepOut
{
    JobResult job;
    double adverseS = 0;
    double sweepS = 0;
    double warmupMinstr = 0;
};

/** bench_fig07_cd1's calls: adverseSet, then speedups per config.
 *  Modelled metrics come from the Athena config's rows. */
SweepOut
runSweep(ExperimentRunner &runner, const Sweep &sw)
{
    SweepOut out;
    double t0 = nowS();
    const std::set<std::string> adverse =
        runner.adverseSet(sw.classCfg, sw.specs);
    out.adverseS = nowS() - t0;
    Hasher extra;
    for (const std::string &name : adverse)
        extra.add(name);
    t0 = nowS();
    for (const SystemConfig &cfg : sw.configs) {
        std::vector<SpeedupRow> rows = runner.speedups(cfg, sw.specs);
        const double overall =
            ExperimentRunner::summarize(rows, adverse).overall;
        extra.add(overall);
        if (cfg.policy == PolicyKind::kAthena)
            out.job.athenaSpeedup = overall;
        if (cfg.policy == PolicyKind::kNaive)
            out.job.naiveSpeedup = overall;
        for (SpeedupRow &row : rows) {
            extra.add(row.speedup);
            if (cfg.policy == PolicyKind::kAthena)
                out.job.modelled.push_back(row.result);
            out.job.sims.push_back(std::move(row.result));
        }
    }
    out.sweepS = nowS() - t0;
    out.warmupMinstr =
        static_cast<double>(runner.warmupInstructionsSimulated()) / 1e6;
    out.job.measured = sw.budget.simInstructions;
    out.job.warmup = sw.budget.warmupInstructions;
    out.job.extra = extra.value();
    return out;
}

/** Each simulation of the sweep rerun alone through runOne; host
 *  seconds per simulation. @p athena_s collects the Athena runs. */
std::vector<double>
rerunAlone(const Sweep &sw, std::vector<double> *athena_s)
{
    ExperimentRunner runner(sw.budget);
    SystemConfig base = sw.classCfg;
    base.policy = PolicyKind::kAllOff;
    std::vector<SystemConfig> cfgs = {base, sw.classCfg};
    cfgs.insert(cfgs.end(), sw.configs.begin(), sw.configs.end());
    std::vector<double> secs;
    for (const SystemConfig &cfg : cfgs) {
        for (const WorkloadSpec &spec : sw.specs) {
            const double t0 = nowS();
            runner.runOne(cfg, spec);
            secs.push_back(nowS() - t0);
            if (athena_s && cfg.policy == PolicyKind::kAthena)
                athena_s->push_back(secs.back());
        }
    }
    return secs;
}

SystemConfig
designConfig(CacheDesign design, double bw, PolicyKind policy)
{
    SystemConfig cfg = makeDesignConfig(design, policy);
    cfg.bandwidthGBps = bw;
    return cfg;
}

// ------------------------------------------------------------ the jobs

/** Per-layer figures of a traced pass. */
struct TracedOut
{
    JobResult job;
    /** Host seconds of the traced job, spans included. It is the same
     *  work as the untraced job, so the difference is the spans' cost. */
    double jobS = 0;
    double runS = 0;          ///< Host seconds inside Simulator::run.
    /** Sequential-engine over default-engine seconds. Where the
     *  default engine is the sequential one this is 1 by definition,
     *  and nothing is run to show it. */
    double parallelSpeedup = 1;
    LayerTimes layers;
    SnapshotCost snap;
    /** Runner figures: only a job that drives ExperimentRunner has
     *  them; the others leave them empty and report 0. */
    SweepOut sweep;
    std::vector<double> simAloneS;
};

class Job
{
  public:
    virtual ~Job() = default;
    /** Everything before the first simulated instruction. */
    virtual void setUp() = 0;
    /** The fixed job; consumes what setUp() built. With @p sim_s the
     *  host seconds inside Simulator::run are added to it (spans). */
    virtual JobResult run(double *sim_s) = 0;
    /** Simulated instructions the job stands for (all cores, warmup
     *  included, cached work counted). */
    virtual std::uint64_t nominalInstructions() const = 0;
    /** Cross-check run with the sequential engine, where the job's
     *  default engine can be another one. */
    virtual bool hasEngineCheck() const { return false; }
    virtual JobResult
    runSequential()
    {
        throw std::logic_error("no engine cross-check for this job");
    }
    /** The traced pass after its job (held in @p t): layer replays,
     *  snapshot cost, and the workload's own extra spans. */
    virtual void traceLayers(TracedOut &t, const std::string &tmp_dir) = 0;
    virtual std::string engine() const { return "sequential (1 core)"; }
};

/** sim.run(plan), adding its host seconds to @p sim_s if given. */
SimResult
timedRun(Simulator &sim, const RunPlan &plan, double *sim_s)
{
    if (!sim_s)
        return sim.run(plan);
    const double t0 = nowS();
    SimResult r = sim.run(plan);
    *sim_s += nowS() - t0;
    return r;
}

class ScJob : public Job
{
  public:
    ScJob(std::uint64_t seed, bool smoke)
        : seed(seed), measured(smoke ? 20000 : 2000000),
          warmup(smoke ? 5000 : 500000)
    {}

    void
    setUp() override
    {
        specs = pick(seededZoo(seed), kScSlice, std::size(kScSlice));
        cfg = makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        first = std::make_unique<Simulator>(
            cfg, std::vector<WorkloadSpec>{specs[0]});
    }

    JobResult
    run(double *sim_s) override
    {
        JobResult j;
        j.measured = measured;
        j.warmup = warmup;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::unique_ptr<Simulator> sim =
                i == 0 ? std::move(first)
                       : std::make_unique<Simulator>(
                             cfg, std::vector<WorkloadSpec>{specs[i]});
            j.sims.push_back(
                timedRun(*sim, RunPlan(measured, warmup), sim_s));
        }
        j.modelled = j.sims;
        return j;
    }

    std::uint64_t
    nominalInstructions() const override
    {
        return std::size(kScSlice) * (measured + warmup);
    }

    void
    traceLayers(TracedOut &t, const std::string &tmp_dir) override
    {
        for (const WorkloadSpec &spec : specs) {
            t.layers.add(replayLayers(cfg, {spec}, measured + warmup,
                                      kReplayCap));
        }
        t.snap = snapshotCost(cfg, {specs[0]}, RunPlan(measured, warmup),
                              tmp_dir + "/sc.asnp", 3);
    }

  private:
    std::uint64_t seed;
    std::uint64_t measured;
    std::uint64_t warmup;
    SystemConfig cfg;
    std::vector<WorkloadSpec> specs;
    std::unique_ptr<Simulator> first;
};

class Mc4Job : public Job
{
  public:
    Mc4Job(std::uint64_t seed, bool smoke)
        : seed(seed), measured(smoke ? 20000 : 1000000),
          warmup(smoke ? 5000 : 250000)
    {}

    void
    setUp() override
    {
        specs = pick(seededZoo(seed), kMc4Mix, std::size(kMc4Mix));
        cfg = makeDesignConfig(CacheDesign::kCd3, PolicyKind::kAthena);
        cfg.cores = 4;
        cfg.bandwidthGBps = 1.6;
        sim = std::make_unique<Simulator>(cfg, specs);
    }

    JobResult
    run(double *sim_s) override
    {
        return runWith(0, sim_s);
    }

    bool hasEngineCheck() const override { return true; }

    JobResult
    runSequential() override
    {
        return runWith(1, nullptr);
    }

    std::uint64_t
    nominalInstructions() const override
    {
        return std::size(kMc4Mix) * (measured + warmup);
    }

    std::string
    engine() const override
    {
        return resolvedEngine;
    }

    void
    traceLayers(TracedOut &t, const std::string &tmp_dir) override
    {
        setUp();
        double seq_s = 0;
        const JobResult seq = runWith(1, &seq_s);
        if (digestOf(seq) != digestOf(t.job))
            throw std::runtime_error("sequential-engine digest differs "
                                     "from the default engine's");
        t.parallelSpeedup = seq_s / t.runS;
        t.layers = replayLayers(cfg, specs, measured + warmup, kReplayCap);
        t.snap = snapshotCost(cfg, specs, RunPlan(measured / 4, warmup / 4),
                              tmp_dir + "/mc4.asnp", 3);
    }

  private:
    JobResult
    runWith(unsigned step_threads, double *sim_s)
    {
        JobResult j;
        j.measured = measured;
        j.warmup = warmup;
        RunPlan plan(measured, warmup);
        plan.stepThreads = step_threads;
        const std::uint64_t jobs0 = ThreadPool::instance().jobsExecuted();
        j.sims.push_back(timedRun(*sim, plan, sim_s));
        sim.reset();
        if (step_threads == 0) {
            // The parallel engine steps the cores on the process-wide
            // pool; the sequential engine never touches it.
            const bool par = ThreadPool::instance().jobsExecuted() != jobs0;
            resolvedEngine =
                par ? "parallel (" + std::to_string(cfg.cores) +
                          " stepping threads)"
                    : "sequential";
        }
        j.modelled = j.sims;
        return j;
    }

    std::uint64_t seed;
    std::uint64_t measured;
    std::uint64_t warmup;
    SystemConfig cfg;
    std::vector<WorkloadSpec> specs;
    std::unique_ptr<Simulator> sim;
    std::string resolvedEngine = "unresolved";
};

class Fig7Job : public Job
{
  public:
    Fig7Job(std::uint64_t seed, bool smoke)
        : seed(seed)
    {
        // The runner's default budget, stated explicitly so the
        // environment cannot change it.
        budget = smoke ? RunBudget{20000, 5000, 0, 0}
                       : RunBudget{800000, 200000, 0, 0};
    }

    void
    setUp() override
    {
        // POPET, Pythia, Naive, HPAC, MAB, Athena: Fig. 7's bars.
        std::vector<SystemConfig> configs;
        for (PolicyKind p :
             {PolicyKind::kOcpOnly, PolicyKind::kPfOnly, PolicyKind::kNaive,
              PolicyKind::kHpac, PolicyKind::kMab, PolicyKind::kAthena})
            configs.push_back(designConfig(CacheDesign::kCd1, 3.2, p));
        sw = Sweep{budget, designConfig(CacheDesign::kCd1, 3.2, PolicyKind::kPfOnly),
                   std::move(configs), fig7Subset(seededZoo(seed))};
        runner = std::make_unique<ExperimentRunner>(budget);
        // The runner builds a Simulator for every simulation, inside
        // its calls. Set-up builds one of the Athena config too, so a
        // change in construction cost shows in setup_s; run() drops it.
        first = std::make_unique<Simulator>(
            sw.configs.back(), std::vector<WorkloadSpec>{sw.specs[0]});
    }

    // The runner's simulations run inside its calls, out of a span's
    // reach; traceLayers() times them by rerunning each alone.
    JobResult
    run(double *) override
    {
        first.reset();
        last = runSweep(*runner, sw);
        runner.reset();
        return last.job;
    }

    std::uint64_t
    nominalInstructions() const override
    {
        // adverseSet: baseline + pf-only; speedups: baseline + policy
        // per config. Cached baselines still count.
        return sw.specs.size() * (2 + 2 * sw.configs.size()) *
               (budget.simInstructions + budget.warmupInstructions);
    }

    void
    traceLayers(TracedOut &t, const std::string &tmp_dir) override
    {
        // The runner's simulations run inside its calls, so
        // sim.run_s comes from rerunning each Athena sim alone.
        t.sweep = last;
        std::vector<double> athena_s;
        t.simAloneS = rerunAlone(sw, &athena_s);
        t.runS = 0;
        for (double s : athena_s)
            t.runS += s;
        const SystemConfig &acfg = sw.configs.back();
        const RunPlan plan(budget.simInstructions, budget.warmupInstructions);
        for (const WorkloadSpec &spec : sw.specs) {
            t.layers.add(replayLayers(acfg, {spec},
                                      plan.measured + plan.warmup,
                                      kReplayCap));
        }
        t.snap = snapshotCost(acfg, {sw.specs[0]}, plan,
                              tmp_dir + "/fig7.asnp", 3);
    }

  private:
    std::uint64_t seed;
    RunBudget budget;
    Sweep sw;
    std::unique_ptr<ExperimentRunner> runner;
    std::unique_ptr<Simulator> first;
    SweepOut last;
};

// ------------------------------------------------------------- metrics

/** Name -> (value, unit), in a fixed order. */
using Modelled =
    std::vector<std::pair<std::string, std::pair<double, const char *>>>;

/** Deterministic modelled counts, aggregated over @p sims. Simulated
 *  quantities (cycles, IPC) are simulated time, not host time. */
Modelled
modelledMetrics(const std::vector<SimResult> &sims)
{
    double instr = 0, cycles = 0, retired = 0, mispred = 0, llc_miss = 0,
           llc_lat = 0, issued = 0, used = 0, timely = 0, preds = 0,
           correct = 0, bus = 0, row_hit = 0, row_miss = 0, d_dem = 0,
           d_pf = 0, d_ocp = 0;
    std::array<double, 4> actions{};
    for (const SimResult &r : sims) {
        for (const SimResult::PerCore &c : r.cores) {
            instr += static_cast<double>(c.instructions);
            cycles += static_cast<double>(c.cycles);
            retired += static_cast<double>(c.completedInstructions);
            mispred += static_cast<double>(c.branchMispredicts);
            llc_miss += static_cast<double>(c.llcMisses);
            llc_lat += static_cast<double>(c.llcMissLatency);
            for (const PrefetcherSlotStats &p : c.pf) {
                issued += static_cast<double>(p.issued);
                used += static_cast<double>(p.used);
                timely += static_cast<double>(p.usedTimely);
            }
            preds += static_cast<double>(c.ocpPredictions);
            correct += static_cast<double>(c.ocpCorrect);
            for (std::size_t a = 0; a < 4; ++a)
                actions[a] += static_cast<double>(c.actionHistogram[a]);
        }
        bus += r.busUtilization;
        row_hit += static_cast<double>(r.dram.rowHits);
        row_miss += static_cast<double>(r.dram.rowMisses);
        d_dem += static_cast<double>(r.dram.demandRequests);
        d_pf += static_cast<double>(r.dram.prefetchRequests);
        d_ocp += static_cast<double>(r.dram.ocpRequests);
    }
    auto div = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    // Prefetcher and OCP counters are lifetime (warmup included);
    // core, LLC and DRAM counters cover the measured window.
    const double act = actions[0] + actions[1] + actions[2] + actions[3];
    return {
        {"cpu.sim_ipc", {div(instr, cycles), "instr/cycle"}},
        {"cpu.branch_mpki", {div(1000 * mispred, instr), "1/kinstr"}},
        {"mem.llc_mpki", {div(1000 * llc_miss, instr), "1/kinstr"}},
        {"mem.llc_miss_lat_cyc", {div(llc_lat, llc_miss), "cycles"}},
        {"prefetch.accuracy", {div(used, issued), "frac"}},
        {"prefetch.timely_frac", {div(timely, used), "frac"}},
        {"prefetch.issued_pki", {div(1000 * issued, retired), "1/kinstr"}},
        {"ocp.accuracy", {div(correct, preds), "frac"}},
        {"ocp.pred_pki", {div(1000 * preds, retired), "1/kinstr"}},
        {"dram.bus_util", {div(bus, static_cast<double>(sims.size())), "frac"}},
        {"dram.row_hit_rate", {div(row_hit, row_hit + row_miss), "frac"}},
        {"dram.demand_pki", {div(1000 * d_dem, instr), "1/kinstr"}},
        {"dram.prefetch_pki", {div(1000 * d_pf, instr), "1/kinstr"}},
        {"dram.ocp_pki", {div(1000 * d_ocp, instr), "1/kinstr"}},
        {"athena.action0_frac", {div(actions[0], act), "frac"}},
        {"athena.action1_frac", {div(actions[1], act), "frac"}},
        {"athena.action2_frac", {div(actions[2], act), "frac"}},
        {"athena.action3_frac", {div(actions[3], act), "frac"}},
    };
}

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        items.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::ostringstream o;
        o << "{";
        for (std::size_t i = 0; i < items.size(); ++i) {
            // Non-finite values are not JSON; nonFinite() fails the run.
            const double v =
                std::isfinite(items[i].value) ? items[i].value : 0.0;
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            o << (i ? ", " : "") << "\"" << items[i].name
              << "\": {\"value\": " << buf << ", \"unit\": \""
              << items[i].unit << "\"}";
        }
        o << "}";
        return o.str();
    }

    /** Names of metrics that are NaN or infinite (not JSON). */
    std::string
    nonFinite() const
    {
        std::string out;
        for (const Item &it : items) {
            if (!std::isfinite(it.value))
                out += " " + it.name;
        }
        return out;
    }

    /** Names of metrics that are not above 0. */
    std::string
    nonPositive() const
    {
        std::string out;
        for (const Item &it : items) {
            if (!(it.value > 0))
                out += " " + it.name;
        }
        return out;
    }

    void
    print(std::ostream &os) const
    {
        for (const Item &it : items) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", it.value);
            os << "  " << it.name << " = " << buf << " " << it.unit << "\n";
        }
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items;
};

// ------------------------------------------------------------ host echo

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
cpuinfoField(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(std::min(colon + 2, line.size()));
        }
    }
    return "unknown";
}

std::string
isaFlags()
{
    std::istringstream flags(cpuinfoField("flags"));
    const std::set<std::string> wanted = {"sse4_2", "avx",      "avx2",
                                          "bmi2",   "fma",      "avx512f",
                                          "avx512bw", "avx512vl"};
    std::string out, f;
    while (flags >> f) {
        if (wanted.count(f))
            out += (out.empty() ? "" : " ") + f;
    }
    return out.empty() ? "none" : out;
}

/** CPUs this process may run on (its affinity mask), as `nproc`
 *  counts them. */
unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    return static_cast<unsigned>(CPU_COUNT(&set));
}

/** A numeric field of /proc/self/status ("Threads", "VmHWM" in kB). */
double
procStatus(const std::string &key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key + ":", 0) == 0)
            return std::stod(line.substr(key.size() + 1));
    }
    throw std::runtime_error("/proc/self/status has no " + key);
}

/**
 * Peak resident memory of this program image. VmHWM, unlike
 * getrusage's ru_maxrss, starts afresh at exec, so a launcher's own
 * footprint (the Python wrapper) does not leak into the figure.
 */
double
peakRssMb()
{
    return procStatus("VmHWM") / 1024.0;
}

void
printHost(const std::string &workload, std::uint64_t seed, bool trace,
          const std::string &engine)
{
    std::cout << "host: {\"workload\": \"" << workload << "\", \"seed\": "
              << seed << ", \"trace\": " << (trace ? 1 : 0)
              << ", \"cpu_model\": \"" << jsonEscape(cpuinfoField("model name"))
              << "\", \"nproc\": " << nproc()
              << ", \"hardware_concurrency\": "
              << std::thread::hardware_concurrency() << ", \"isa\": \""
              << isaFlags() << "\", \"compiler\": \"" << PERFBENCH_COMPILER
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"simd_backend\": \""
              << simd::backendName(simd::activeBackend())
              << "\", \"stepping_engine\": \"" << engine << "\"}\n";
}

// ----------------------------------------------------------------- main

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    bool smoke = false;
    bool digestSelfTest = false;
    bool repetition = false;
    std::string tmpDir = ".bench_build/tmp";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload sc_athena_zoo|"
                 "mc4_athena_lowbw|fig7_sweep --seed N --seconds S "
                 "--trace 0|1 [--tmp-dir DIR] [--smoke]\n"
                 "       perfbench --repetition --workload W --seed N "
                 "[--smoke]   (one repetition; raw result on stdout)\n"
                 "       perfbench --digest-selftest\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + k);
            return argv[++i];
        };
        try {
            if (k == "--workload") {
                a.workload = val();
            } else if (k == "--seed") {
                a.seed = std::stoull(val());
                have_seed = true;
            } else if (k == "--seconds") {
                a.seconds = std::stod(val());
            } else if (k == "--trace") {
                a.trace = std::stoi(val());
            } else if (k == "--tmp-dir") {
                a.tmpDir = val();
            } else if (k == "--smoke") {
                a.smoke = true;
            } else if (k == "--digest-selftest") {
                a.digestSelfTest = true;
            } else if (k == "--repetition") {
                a.repetition = true;
            } else {
                usage("unknown argument " + k);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + k);
        }
    }
    if (a.digestSelfTest)
        return a;
    if (a.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

std::unique_ptr<Job>
makeJob(const Args &a)
{
    if (a.workload == "sc_athena_zoo")
        return std::make_unique<ScJob>(a.seed, a.smoke);
    if (a.workload == "mc4_athena_lowbw")
        return std::make_unique<Mc4Job>(a.seed, a.smoke);
    if (a.workload == "fig7_sweep")
        return std::make_unique<Fig7Job>(a.seed, a.smoke);
    usage("unknown workload " + a.workload);
}

/**
 * Shows the digest check fires: a real result and a copy differing
 * in one simulated counter must compare unequal, and the copy must
 * compare equal to itself.
 */
int
digestSelfTest()
{
    SystemConfig cfg = makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    Simulator sim(cfg, {findWorkload(seededZoo(1), kScSlice[0])});
    const SimResult a = sim.run(RunPlan(20000, 5000));
    SimResult b = a;
    b.cores[0].cycles += 1;
    const bool fires = digestOf(a) != digestOf(b);
    const bool stable = digestOf(a) == digestOf(SimResult(a));
    SimResult c = a;
    c.cores[0].pf[0].used = c.cores[0].pf[0].issued + 1;
    const bool invariant_fires =
        !checkInvariants(c, 20000, 5000).empty() &&
        checkInvariants(a, 20000, 5000).empty();
    std::cout << "digest self-test: mismatched pair "
              << (fires ? "detected" : "NOT detected")
              << "; identical pair " << (stable ? "equal" : "DIFFERENT")
              << "; invariant check "
              << (invariant_fires ? "fires" : "DOES NOT fire") << "\n";
    return fires && stable && invariant_fires ? 0 : 1;
}

void
printModelled(const Modelled &modelled)
{
    std::cout << "modelled (simulated, deterministic; model unvalidated: "
                 "no hardware reference in the repo):\n";
    Metrics m;
    for (const auto &[name, vu] : modelled)
        m.add(name, vu.first, vu.second);
    m.print(std::cout);
}

/**
 * Host seconds of @p n cold set-ups of @p job. Each runs in a child
 * forked from this process before it has built anything, so every
 * sample starts from the same small heap and pays its tables'
 * first-touch page faults, as the first set-up of a new process does.
 */
std::vector<double>
coldSetUps(Job &job, std::size_t n)
{
    std::cout.flush();
    std::cerr.flush();
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i) {
        int fd[2];
        if (pipe(fd) != 0)
            throw std::runtime_error("pipe failed");
        const pid_t pid = fork();
        if (pid < 0) {
            close(fd[0]);
            close(fd[1]);
            throw std::runtime_error("fork failed");
        }
        if (pid == 0) {
            close(fd[0]);
            double s = -1;
            try {
                const double t0 = nowS();
                job.setUp();
                s = nowS() - t0;
            } catch (...) {
            }
            const bool ok = write(fd[1], &s, sizeof s) == sizeof s && s >= 0;
            _exit(ok ? 0 : 1);
        }
        close(fd[1]);
        double s = -1;
        const bool got = read(fd[0], &s, sizeof s) == sizeof s;
        close(fd[0]);
        int status = 0;
        const bool reaped = waitpid(pid, &status, 0) == pid;
        if (!got || !reaped || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            throw std::runtime_error("a cold set-up sample failed");
        out.push_back(s);
    }
    return out;
}

/** What one repetition process reports to its parent, raw. */
struct RepOut
{
    double setupS = -1;
    double runS = -1;
    double rssMb = 0;
    std::uint64_t digest = 0;
    std::uint64_t threads = 0;
    std::uint64_t nominalInstructions = 0;
    std::array<double, 18> modelled{};
    char engine[64] = {};
};

/**
 * --repetition: one set-up and one execution of the job, checked,
 * reported as a raw RepOut on stdout (a pipe from the parent).
 */
int
repetitionChild(const Args &args)
{
    RepOut o;
    try {
        std::unique_ptr<Job> job = makeJob(args);
        double t0 = nowS();
        job->setUp();
        o.setupS = nowS() - t0;
        t0 = nowS();
        const JobResult j = job->run(nullptr);
        o.runS = nowS() - t0;
        checkJob(j);
        o.digest = digestOf(j);
        o.nominalInstructions = job->nominalInstructions();
        const Modelled m = modelledMetrics(j.modelled);
        if (m.size() != o.modelled.size())
            throw std::logic_error("RepOut::modelled has the wrong size");
        for (std::size_t i = 0; i < m.size(); ++i)
            o.modelled[i] = m[i].second.first;
        o.rssMb = peakRssMb();
        o.threads = static_cast<std::uint64_t>(procStatus("Threads"));
        std::snprintf(o.engine, sizeof o.engine, "%s", job->engine().c_str());
    } catch (const std::exception &e) {
        std::cerr << "perfbench: repetition failed: " << e.what() << "\n";
        return 1;
    }
    const char *p = reinterpret_cast<const char *>(&o);
    for (std::size_t done = 0; done < sizeof o;) {
        const ssize_t n = write(STDOUT_FILENO, p + done, sizeof o - done);
        if (n <= 0)
            return 1;
        done += static_cast<std::size_t>(n);
    }
    return 0;
}

/**
 * One repetition in a fresh process: this program exec'd again with
 * --repetition. A new process draws a new randomized address-space
 * layout and new physical pages. On a 4-vCPU Xeon host, interleaved
 * processes running the same sc job took 1.91-2.57 s with address
 * space randomization and 2.30-2.65 s without it. The median over
 * repetitions that each drew their own layout measures the simulator,
 * not the layout one process happened to get.
 */
RepOut
spawnRepetition(const Args &a)
{
    std::vector<std::string> args = {"perfbench", "--repetition",
                                     "--workload", a.workload,
                                     "--seed", std::to_string(a.seed)};
    if (a.smoke)
        args.push_back("--smoke");
    std::vector<char *> argv;
    for (std::string &s : args)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    std::cout.flush();
    std::cerr.flush();
    int fd[2];
    if (pipe(fd) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) {
        close(fd[0]);
        close(fd[1]);
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        close(fd[0]);
        if (dup2(fd[1], STDOUT_FILENO) >= 0) {
            close(fd[1]);
            execv("/proc/self/exe", argv.data());
        }
        _exit(127);
    }
    close(fd[1]);
    RepOut o;
    char *p = reinterpret_cast<char *>(&o);
    std::size_t done = 0;
    while (done < sizeof o) {
        const ssize_t n = read(fd[0], p + done, sizeof o - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        done += static_cast<std::size_t>(n);
    }
    close(fd[0]);
    int status = 0;
    const bool reaped = waitpid(pid, &status, 0) == pid;
    if (done != sizeof o || !reaped || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("a repetition process failed");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    for (const char *name : kRefusedEnv) {
        if (std::getenv(name) != nullptr) {
            std::cerr << "perfbench: refusing to run: " << name
                      << " is set, and it changes what the simulator "
                         "runs; unset it so every host measures the same "
                         "engine and budgets\n";
            return 2;
        }
    }
    if (args.digestSelfTest)
        return digestSelfTest();
    if (args.repetition)
        return repetitionChild(args);

    std::unique_ptr<Job> job = makeJob(args);
    std::error_code ec;
    std::filesystem::create_directories(args.tmpDir, ec);

    const double start = nowS();
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t digest = 0;
    bool have_digest = false;
    JobResult last;
    auto note_digest = [&](std::uint64_t d, const char *what) {
        if (!have_digest) {
            digest = d;
            have_digest = true;
        } else if (d != digest) {
            throw std::runtime_error(std::string("digest of ") + what +
                                     " differs from the first run's");
        }
    };
    auto attempt = [&](const char *what, auto &&fn) {
        ++attempted;
        try {
            fn();
        } catch (const std::exception &e) {
            ++failed;
            std::cerr << "perfbench: " << what << " failed: " << e.what()
                      << "\n";
        }
    };

    Metrics metrics;
    if (args.trace == 0) {
        // This process builds nothing the set-up children would inherit
        // until the loop is over.
        std::vector<double> setup_s, run_s, wall_s, rss_mb;
        RepOut last_rep;
        const int min_reps = args.smoke ? 1 : 3;
        constexpr int kMaxReps = 1000;
        for (int rep = 0; rep < kMaxReps; ++rep) {
            attempt("repetition", [&] {
                for (double s : coldSetUps(*job, kSetupSamplesPerRep))
                    setup_s.push_back(s);
                const RepOut o = spawnRepetition(args);
                if (o.threads > nproc()) {
                    throw std::runtime_error(
                        "the repetition ran " + std::to_string(o.threads) +
                        " threads, more than nproc = " +
                        std::to_string(nproc()));
                }
                note_digest(o.digest, "a repetition");
                run_s.push_back(o.runS);
                wall_s.push_back(o.setupS + o.runS);
                rss_mb.push_back(o.rssMb);
                last_rep = o;
            });
            const double per_rep = (nowS() - start) / (rep + 1);
            if (rep + 1 >= min_reps &&
                (failed > 0 || nowS() - start + per_rep > args.seconds))
                break;
        }
        if (job->hasEngineCheck()) {
            attempt("sequential-engine cross-check", [&] {
                job->setUp();
                note_digest(digestOf(job->runSequential()),
                            "the sequential engine");
            });
        }
        const double run_med = median(run_s);
        metrics.add("wall_s", median(wall_s), "s");
        metrics.add("minstr_per_s",
                    run_med > 0 ? static_cast<double>(
                                      last_rep.nominalInstructions) /
                                      1e6 / run_med
                                : 0.0,
                    "Minstr/s");
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("peak_rss_mb", median(rss_mb), "MB");
        // Every end-to-end figure is a positive quantity; 0 means
        // nothing was measured.
        if (const std::string bad = metrics.nonPositive(); !bad.empty()) {
            ++failed;
            std::cerr << "perfbench: end-to-end metrics not above 0:" << bad
                      << "\n";
        }
        printHost(args.workload, args.seed, false, last_rep.engine);
        std::cout << "repetitions: " << run_s.size()
                  << "; nominal simulated instructions per job: "
                  << last_rep.nominalInstructions << "; digest: " << std::hex
                  << digest << std::dec << "\n";
        std::cout << "job seconds quartiles: " << percentile(run_s, 0.25)
                  << " " << percentile(run_s, 0.5) << " "
                  << percentile(run_s, 0.75) << "; min " << percentile(run_s, 0)
                  << "\n";
        std::cout << "cold set-up samples: " << setup_s.size()
                  << "; quartiles (s): " << percentile(setup_s, 0.25) << " "
                  << percentile(setup_s, 0.5) << " "
                  << percentile(setup_s, 0.75) << "\n";
        Modelled modelled = modelledMetrics({});
        for (std::size_t i = 0; i < modelled.size(); ++i)
            modelled[i].second.first = last_rep.modelled[i];
        printModelled(modelled);
        std::cout << "end-to-end (host time, medians over repetitions, "
                     "one process each):\n";
        metrics.print(std::cout);
    } else {
        double untraced_s = 0;
        attempt("untraced pass", [&] {
            job->setUp();
            const double t0 = nowS();
            JobResult j = job->run(nullptr);
            untraced_s = nowS() - t0;
            checkJob(j);
            note_digest(digestOf(j), "the untraced pass");
            last = std::move(j);
        });
        TracedOut t;
        attempt("traced pass", [&] {
            job->setUp();
            const double t0 = nowS();
            t.job = job->run(&t.runS);
            t.jobS = nowS() - t0;
            checkJob(t.job);
            note_digest(digestOf(t.job), "the traced pass");
            job->traceLayers(t, args.tmpDir);
        });
        const LayerTimes &l = t.layers;
        auto per = [](double s, std::uint64_t n, double unit) {
            return n ? s * unit / static_cast<double>(n) : 0.0;
        };
        metrics.add("trace.ns_per_record", per(l.traceS, l.records, 1e9), "ns");
        metrics.add("cpu.ns_per_instr", per(l.cpuS, l.instrs, 1e9), "ns");
        metrics.add("mem.l1d_ns_per_access", per(l.l1S, l.l1N, 1e9), "ns");
        metrics.add("mem.l2c_ns_per_access", per(l.l2S, l.l2N, 1e9), "ns");
        metrics.add("mem.llc_ns_per_access", per(l.llcS, l.llcN, 1e9), "ns");
        metrics.add("mem.dram_ns_per_request", per(l.dramS, l.dramN, 1e9), "ns");
        metrics.add("prefetch.ns_per_observe", per(l.pfS, l.pfN, 1e9), "ns");
        metrics.add("ocp.ns_per_predict", per(l.predS, l.predN, 1e9), "ns");
        metrics.add("ocp.ns_per_train", per(l.trainS, l.trainN, 1e9), "ns");
        metrics.add("coord.us_per_epoch", per(l.epochS, l.epochs, 1e6), "us");
        metrics.add("sim.run_s", t.runS, "s");
        metrics.add("sim.unattributed_frac",
                    t.runS > 0 ? 1.0 - l.scaledS / t.runS : 0.0, "frac");
        metrics.add("sim.parallel_speedup", t.parallelSpeedup, "x");
        metrics.add("sim.trace_overhead_frac",
                    untraced_s > 0 ? (t.jobS - untraced_s) / untraced_s
                                   : 0.0,
                    "frac");
        double alone = 0;
        for (double s : t.simAloneS)
            alone += s;
        const double sweep_total = t.sweep.adverseS + t.sweep.sweepS;
        metrics.add("runner.adverse_s", t.sweep.adverseS, "s");
        metrics.add("runner.sweep_s", t.sweep.sweepS, "s");
        metrics.add("runner.sim_p50_s", percentile(t.simAloneS, 0.5), "s");
        metrics.add("runner.sim_p95_s", percentile(t.simAloneS, 0.95), "s");
        metrics.add("runner.fleet_speedup",
                    sweep_total > 0 ? alone / sweep_total : 0.0, "x");
        metrics.add("runner.warmup_minstr", t.sweep.warmupMinstr, "Minstr");
        metrics.add("runner.athena_speedup", t.sweep.job.athenaSpeedup, "x");
        metrics.add("runner.naive_speedup", t.sweep.job.naiveSpeedup, "x");
        metrics.add("snapshot.save_ms", t.snap.saveMs, "ms");
        metrics.add("snapshot.restore_ms", t.snap.restoreMs, "ms");
        metrics.add("snapshot.mb", t.snap.mb, "MB");
        printHost(args.workload, args.seed, true, job->engine());
        std::cout << "digest: " << std::hex << digest << std::dec
                  << " (untraced and traced passes"
                  << (job->hasEngineCheck() ? ", default and sequential engines"
                                            : "")
                  << ")\n";
        std::cout << "per-layer (host time):\n";
        metrics.print(std::cout);
        const Modelled modelled = modelledMetrics(last.modelled);
        printModelled(modelled);
        for (const auto &[name, vu] : modelled)
            metrics.add(name, vu.first, vu.second);
    }
    if (const std::string bad = metrics.nonFinite(); !bad.empty()) {
        ++failed;
        std::cerr << "perfbench: non-finite metrics:" << bad << "\n";
    }
    // The runner's pool (and the parallel engine on it) is the only
    // source of extra threads, and it persists, so this is the peak.
    const unsigned threads = static_cast<unsigned>(procStatus("Threads"));
    if (threads > nproc()) {
        ++failed;
        std::cerr << "perfbench: " << threads << " threads exceed nproc = "
                  << nproc() << "\n";
    }
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return failed == 0 ? 0 : 1;
}
