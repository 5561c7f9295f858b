/**
 * @file
 * Outside-in per-layer replays (see layers.hh).
 */

#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "athena/agent.hh"
#include "cpu/core_model.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "ocp/ocp.hh"
#include "prefetch/prefetcher.hh"
#include "trace/workload.hh"

namespace perfbench
{

using namespace athena;

namespace
{

/** Keeps replay results observable so no loop is optimized away. */
volatile std::uint64_t g_sink = 0;

/** A finite generator over an in-memory record vector. */
class RecordedStream : public WorkloadGenerator
{
  public:
    explicit RecordedStream(const std::vector<TraceRecord> &records)
        : recs(records)
    {}

    void reset() override { pos = 0; }

    TraceRecord
    next() override
    {
        if (pos >= recs.size())
            throw std::out_of_range("recorded stream exhausted");
        return recs[pos++];
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t n) override
    {
        const std::size_t k = std::min(n, recs.size() - pos);
        std::memcpy(out, recs.data() + pos, k * sizeof(TraceRecord));
        pos += k;
        return k;
    }

  private:
    const std::vector<TraceRecord> &recs;
    std::size_t pos = 0;
};

/** Every load completes a fixed L1 round trip later, no misses. */
class FixedLatencyMemory : public MemoryInterface
{
  public:
    Cycle
    load(std::uint64_t, Addr, Cycle issue, bool &l1_miss) override
    {
        l1_miss = false;
        return issue + kLatency;
    }

    void store(std::uint64_t, Addr, Cycle) override {}

  private:
    static constexpr Cycle kLatency = 5;
};

/** One demand access reaching a cache level. */
struct LevelAccess
{
    Addr addr;
    std::uint32_t record; ///< Index in the core's replayed stream.
    bool isLoad;
};

/** One demand load seen by the off-chip predictor. */
struct OcpSample
{
    std::uint64_t pc;
    Addr addr;
    bool offChip;
};

/** Replay a private cache level: access, fill on a miss. */
double
timeCache(const CacheParams &params, const std::vector<Addr> &lines)
{
    Cache cache(params);
    Cycle t = 0;
    std::uint64_t hits = 0;
    const double t0 = nowS();
    for (Addr line : lines) {
        ++t;
        if (cache.access(line, t).hit)
            ++hits;
        else
            cache.fill(line, t, t, false);
    }
    const double dt = nowS() - t0;
    g_sink = g_sink + hits;
    return dt;
}

} // namespace

double
nowS()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
LayerTimes::add(const LayerTimes &o)
{
    traceS += o.traceS;
    records += o.records;
    cpuS += o.cpuS;
    instrs += o.instrs;
    l1S += o.l1S;
    l1N += o.l1N;
    l2S += o.l2S;
    l2N += o.l2N;
    llcS += o.llcS;
    llcN += o.llcN;
    dramS += o.dramS;
    dramN += o.dramN;
    pfS += o.pfS;
    pfN += o.pfN;
    predS += o.predS;
    predN += o.predN;
    trainS += o.trainS;
    trainN += o.trainN;
    epochS += o.epochS;
    epochs += o.epochs;
    scaledS += o.scaledS;
}

double
LayerTimes::replayS() const
{
    return traceS + cpuS + l1S + l2S + llcS + dramS + pfS + predS + trainS +
           epochS;
}

LayerTimes
replayLayers(const SystemConfig &cfg,
             const std::vector<WorkloadSpec> &specs,
             std::uint64_t instr_per_core, std::uint64_t cap)
{
    LayerTimes lt;
    const std::uint64_t n = std::min(instr_per_core, cap);
    const std::size_t cores = specs.size();

    std::vector<std::vector<LevelAccess>> llc_in(cores);
    std::vector<std::vector<OcpSample>> ocp_in(cores);
    // Per core: the ocp_in index of each load that reached the LLC,
    // patched with the LLC outcome once the shared walk has run.
    std::vector<std::vector<std::uint32_t>> llc_load_slot(cores);
    std::vector<std::vector<EpochStats>> epochs(cores);

    for (std::size_t c = 0; c < cores; ++c) {
        // trace: generate (and record) the stream the core consumes.
        std::vector<TraceRecord> recs(n);
        auto gen = makeWorkload(specs[c]);
        double t0 = nowS();
        for (std::uint64_t off = 0; off < n;
             off += CoreModel::kBatchCapacity) {
            const std::size_t k = static_cast<std::size_t>(
                std::min<std::uint64_t>(CoreModel::kBatchCapacity,
                                        n - off));
            gen->nextBatch(recs.data() + off, k);
        }
        lt.traceS += nowS() - t0;
        lt.records += n;

        // cpu: the core model alone.
        {
            RecordedStream stream(recs);
            FixedLatencyMemory mem;
            CoreModel core(cfg.core, stream, mem);
            t0 = nowS();
            const std::uint64_t done = core.stepN(n);
            lt.cpuS += nowS() - t0;
            lt.instrs += done;
            g_sink = g_sink + core.now();
        }

        // Untimed demand walk through the private levels, recording
        // each level's input stream.
        Cache l1(l1dParams());
        Cache l2(l2cParams());
        std::vector<Addr> l1_lines, l2_lines;
        std::vector<PrefetchTrigger> l2_trig;
        EpochStats ep;
        std::uint64_t in_epoch = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const TraceRecord &r = recs[i];
            const Cycle t = i + 1;
            if (r.kind == InstrKind::kBranch)
                ++ep.branches;
            if (r.kind == InstrKind::kLoad || r.kind == InstrKind::kStore) {
                const bool is_load = r.kind == InstrKind::kLoad;
                const Addr line = lineNumber(r.addr);
                if (is_load) {
                    ++ep.loads;
                    ocp_in[c].push_back({r.pc, r.addr, false});
                }
                l1_lines.push_back(line);
                if (!l1.access(line, t).hit) {
                    l1.fill(line, t, t, false);
                    l2_lines.push_back(line);
                    const bool h2 = l2.access(line, t).hit;
                    l2_trig.push_back({r.pc, r.addr, h2, t});
                    if (!h2) {
                        l2.fill(line, t, t, false);
                        llc_in[c].push_back(
                            {r.addr, static_cast<std::uint32_t>(i),
                             is_load});
                        if (is_load) {
                            llc_load_slot[c].push_back(
                                static_cast<std::uint32_t>(
                                    ocp_in[c].size() - 1));
                        }
                        ++ep.llcDemandAccesses;
                    }
                }
            }
            if (++in_epoch == cfg.epochInstructions || i + 1 == n) {
                ep.instructions = in_epoch;
                epochs[c].push_back(ep);
                ep = EpochStats{};
                in_epoch = 0;
            }
        }
        recs.clear();
        recs.shrink_to_fit();

        // mem: private levels, each over its own input stream.
        lt.l1S += timeCache(l1dParams(), l1_lines);
        lt.l1N += l1_lines.size();
        lt.l2S += timeCache(l2cParams(), l2_lines);
        lt.l2N += l2_lines.size();

        // prefetch: each L2C prefetcher over the L2C triggers, seeded
        // as the simulator seeds core c's. (The benchmark's designs,
        // CD1 and CD3, have no L1D prefetcher.)
        const std::pair<PrefetcherKind, std::uint64_t> slots[] = {
            {cfg.l2cPf, cfg.seed + 17 * (c + 1)},
            {cfg.l2cPf2, cfg.seed + 31 * (c + 1)},
        };
        for (const auto &[kind, seed] : slots) {
            if (kind == PrefetcherKind::kNone)
                continue;
            auto pf = makePrefetcher(kind, seed, CacheLevel::kL2C);
            CandidateVec out;
            std::uint64_t cands = 0;
            t0 = nowS();
            for (const PrefetchTrigger &tr : l2_trig) {
                out.clear();
                pf->observe(tr, out);
                cands += out.size();
            }
            lt.pfS += nowS() - t0;
            lt.pfN += l2_trig.size();
            g_sink = g_sink + cands;
        }
    }

    // Shared LLC: interleave the cores' LLC input streams in
    // fixed-size chunks, as the least-advanced-core scheduler does.
    constexpr std::size_t kChunk = 64;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
    {
        std::vector<std::size_t> pos(cores, 0);
        bool more = true;
        while (more) {
            more = false;
            for (std::size_t c = 0; c < cores; ++c) {
                const std::size_t end =
                    std::min(pos[c] + kChunk, llc_in[c].size());
                for (; pos[c] < end; ++pos[c]) {
                    order.push_back({static_cast<std::uint32_t>(c),
                                     static_cast<std::uint32_t>(pos[c])});
                }
                more = more || pos[c] < llc_in[c].size();
            }
        }
    }

    const CacheParams llc_params = llcParams(cfg.cores);
    std::vector<Addr> dram_lines;
    std::vector<AccessType> dram_types;
    {
        BankedLlc llc(llc_params, cfg.llcBanks);
        std::vector<std::size_t> load_seen(cores, 0);
        Cycle t = 0;
        for (const auto &[c, k] : order) {
            const LevelAccess &a = llc_in[c][k];
            const Addr line = lineNumber(a.addr);
            const BankedRef ref = llc.ref(line);
            const bool hit = llc.access(ref, ++t).hit;
            if (!hit) {
                llc.fill(ref, t, t, false);
                dram_lines.push_back(line);
                dram_types.push_back(a.isLoad ? AccessType::kDemandLoad
                                              : AccessType::kDemandStore);
                const std::size_t e = a.record / cfg.epochInstructions;
                if (e < epochs[c].size())
                    ++epochs[c][e].llcMisses;
            }
            if (a.isLoad)
                ocp_in[c][llc_load_slot[c][load_seen[c]++]].offChip = !hit;
        }
    }

    {
        BankedLlc llc(llc_params, cfg.llcBanks);
        Cycle t = 0;
        std::uint64_t hits = 0;
        const double t0 = nowS();
        for (const auto &[c, k] : order) {
            const BankedRef ref = llc.ref(lineNumber(llc_in[c][k].addr));
            if (llc.access(ref, ++t).hit)
                ++hits;
            else
                llc.fill(ref, t, t, false);
        }
        lt.llcS += nowS() - t0;
        lt.llcN += order.size();
        g_sink = g_sink + hits;
    }

    // DRAM: the LLC misses, enqueued in small groups and drained
    // per channel, arriving one line-transfer time apart.
    {
        ChanneledDram dram(dramParams(cfg), cfg.dramChannels);
        const double gap = dram.cyclesPerLine();
        constexpr std::size_t kGroup = 8;
        Cycle last = 0;
        const double t0 = nowS();
        for (std::size_t i = 0; i < dram_lines.size(); i += kGroup) {
            const std::size_t end = std::min(i + kGroup, dram_lines.size());
            for (std::size_t j = i; j < end; ++j) {
                dram.enqueue(static_cast<Cycle>(gap * static_cast<double>(j)),
                             dram_lines[j], dram_types[j]);
            }
            for (unsigned ch = 0; ch < dram.channelCount(); ++ch) {
                auto done = dram.drainChannel(ch);
                if (!done.empty())
                    last = std::max(last, done.back());
            }
        }
        lt.dramS += nowS() - t0;
        lt.dramN += dram_lines.size();
        g_sink = g_sink + last;
    }

    for (std::size_t c = 0; c < cores; ++c) {
        // ocp: predict then train each chunk of demand loads, the
        // order the simulator calls them in per load.
        if (cfg.ocp != OcpKind::kNone) {
            auto ocp = makeOcp(cfg.ocp);
            const auto &in = ocp_in[c];
            std::uint64_t positives = 0;
            for (std::size_t i = 0; i < in.size(); i += kChunk) {
                const std::size_t end = std::min(i + kChunk, in.size());
                double t0 = nowS();
                for (std::size_t j = i; j < end; ++j)
                    positives += ocp->predictDemand(in[j].pc, in[j].addr);
                lt.predS += nowS() - t0;
                t0 = nowS();
                for (std::size_t j = i; j < end; ++j)
                    ocp->trainDemand(in[j].pc, in[j].addr, in[j].offChip);
                lt.trainS += nowS() - t0;
            }
            lt.predN += in.size();
            lt.trainN += in.size();
            g_sink = g_sink + positives;
        }

        // coord: the Athena agent's epoch step, fed statistics built
        // from the replayed stream (cycles and bandwidth are a
        // simple function of the walk's LLC misses).
        if (cfg.policy == PolicyKind::kAthena) {
            AthenaConfig ac = cfg.athena;
            ac.batchedTraining = cfg.batchedInference;
            AthenaAgent agent(ac);
            const double line_cycles = dramParams(cfg).coreGHz * 64.0 /
                                       dramParams(cfg).bandwidthGBps;
            for (EpochStats &e : epochs[c]) {
                e.cycles = e.instructions / 2 + e.llcMisses * 200;
                e.llcMissLatency = e.llcMisses * 200;
                e.dramDemand = e.llcMisses;
                e.bandwidthUsage = std::min(
                    1.0, static_cast<double>(e.llcMisses) * line_cycles /
                             static_cast<double>(std::max<std::uint64_t>(
                                 e.cycles, 1)));
            }
            std::uint64_t mask = 0;
            const double t0 = nowS();
            for (const EpochStats &e : epochs[c])
                mask += agent.onEpochEnd(e).pfEnableMask;
            lt.epochS += nowS() - t0;
            lt.epochs += epochs[c].size();
            g_sink = g_sink + mask;
        }
    }

    lt.scaledS = n == 0 ? 0.0
                        : lt.replayS() * static_cast<double>(instr_per_core) /
                              static_cast<double>(n);
    return lt;
}

SnapshotCost
snapshotCost(const SystemConfig &cfg, const std::vector<WorkloadSpec> &specs,
             const RunPlan &plan, const std::string &path, int reps)
{
    Simulator sim(cfg, specs);
    sim.run(plan);
    std::vector<double> save, restore;
    double mb = 0;
    for (int i = 0; i < reps; ++i) {
        double t0 = nowS();
        sim.snapshot(path);
        save.push_back((nowS() - t0) * 1e3);
        mb = static_cast<double>(std::filesystem::file_size(path)) /
             (1024.0 * 1024.0);
        t0 = nowS();
        auto resumed = std::make_unique<Simulator>(cfg, specs, path);
        restore.push_back((nowS() - t0) * 1e3);
        resumed.reset();
    }
    std::filesystem::remove(path);
    return {median(save), median(restore), mb};
}

} // namespace perfbench
