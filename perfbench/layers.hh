/**
 * @file
 * Outside-in per-layer timing for the benchmark's traced run.
 *
 * Nothing inside the simulator is instrumented. Instead each layer is
 * driven directly through its public entry points over an input
 * stream recorded from the same workload specs the simulation ran:
 *
 *   trace     WorkloadGenerator::nextBatch, recording the stream
 *   cpu       CoreModel::stepN over the recorded stream against a
 *             fixed-latency memory owned by the benchmark
 *   mem       Cache::access/fill (L1D, L2C), BankedLlc::access/fill
 *             and ChanneledDram::enqueue/drainChannel over each
 *             level's input stream from a plain demand walk
 *   prefetch  Prefetcher::observe over the L2C triggers
 *   ocp       OffChipPredictor::predictDemand / trainDemand over
 *             the demand loads, labelled by the walk's LLC misses
 *   coord     AthenaAgent::onEpochEnd over per-epoch statistics
 *             synthesized from the same stream
 *
 * The demand walk has no prefetching, so per-level access counts
 * differ from the full simulation; per-call costs, not counts, are
 * what these numbers report.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

/** Host seconds and call counts spent in each layer's replay. */
struct LayerTimes
{
    double traceS = 0;
    std::uint64_t records = 0;
    double cpuS = 0;
    std::uint64_t instrs = 0;
    double l1S = 0;
    std::uint64_t l1N = 0;
    double l2S = 0;
    std::uint64_t l2N = 0;
    double llcS = 0;
    std::uint64_t llcN = 0;
    double dramS = 0;
    std::uint64_t dramN = 0;
    double pfS = 0;
    std::uint64_t pfN = 0;
    double predS = 0;
    std::uint64_t predN = 0;
    double trainS = 0;
    std::uint64_t trainN = 0;
    double epochS = 0;
    std::uint64_t epochs = 0;
    /** Replay seconds scaled to the full simulated length (the
     *  replay covers at most a capped prefix of each stream). */
    double scaledS = 0;

    void add(const LayerTimes &o);
    /** Host seconds of all replays, unscaled. */
    double replayS() const;
};

/**
 * Replay every layer of one simulation: @p specs holds one workload
 * per core of @p cfg, each run for @p instr_per_core instructions.
 * At most @p cap records per core are replayed.
 */
LayerTimes replayLayers(const athena::SystemConfig &cfg,
                        const std::vector<athena::WorkloadSpec> &specs,
                        std::uint64_t instr_per_core,
                        std::uint64_t cap);

/** Snapshot save/restore cost of one simulator. */
struct SnapshotCost
{
    double saveMs = 0;
    double restoreMs = 0;
    double mb = 0;
};

/**
 * Run a simulator of (@p cfg, @p specs) for @p plan, then save it to
 * @p path and restore it into a fresh simulator, @p reps times;
 * medians are reported. The file is removed afterwards.
 */
SnapshotCost snapshotCost(const athena::SystemConfig &cfg,
                          const std::vector<athena::WorkloadSpec> &specs,
                          const athena::RunPlan &plan,
                          const std::string &path, int reps);

/** Host seconds from a steady clock. */
double nowS();

/** Median of @p v (v is reordered). */
double median(std::vector<double> v);

/** Linear-interpolated percentile @p q in [0, 1] of @p v. */
double percentile(std::vector<double> v, double q);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
