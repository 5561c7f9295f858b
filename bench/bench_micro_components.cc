/**
 * @file
 * google-benchmark microbenchmarks for Athena's timing-critical
 * hardware structures: QVStore lookup/update (section 5.4.2 argues
 * a 50-cycle update budget is ample) and Bloom filter
 * insert/query (section 5.2 trackers) — plus the simulation
 * engine's own hot path (Cache access/fill, workload generation,
 * and a full Simulator step) so engine-speed regressions show up
 * at component granularity before bench_throughput does. Snapshot
 * save/restore throughput rides along so checkpoint cost stays
 * visible as component state grows.
 */

#include <array>
#include <benchmark/benchmark.h>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "athena/bloom.hh"
#include "athena/qvstore.hh"
#include "common/fast_mod.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "prefetch/prefetcher.hh"
#include "sim/parallel_step.hh"
#include "sim/simulator.hh"
#include "sim/step_picker.hh"
#include "sim/system_config.hh"
#include "trace/workload.hh"
#include "trace/zoo.hh"

namespace
{

void
BM_QVStoreLookup(benchmark::State &state)
{
    athena::QVStore qv;
    athena::Rng rng(1);
    for (auto _ : state) {
        auto s = static_cast<std::uint32_t>(rng.next());
        benchmark::DoNotOptimize(qv.q(s, s & 3));
    }
}
BENCHMARK(BM_QVStoreLookup);

void
BM_QVStoreArgmax(benchmark::State &state)
{
    athena::QVStore qv;
    athena::Rng rng(2);
    for (auto _ : state) {
        auto s = static_cast<std::uint32_t>(rng.next());
        benchmark::DoNotOptimize(qv.argmax(s));
    }
}
BENCHMARK(BM_QVStoreArgmax);

void
BM_QVStoreSarsaUpdate(benchmark::State &state)
{
    athena::QVStore qv;
    athena::Rng rng(3);
    for (auto _ : state) {
        auto s = static_cast<std::uint32_t>(rng.next());
        auto s2 = static_cast<std::uint32_t>(rng.next());
        qv.update(s, s & 3, 0.5, s2, s2 & 3);
    }
}
BENCHMARK(BM_QVStoreSarsaUpdate);

void
BM_QVLookupScalarLoop(benchmark::State &state)
{
    // 64 random states resolved one (state, action) q() call at a
    // time.
    athena::QVStore qv;
    athena::Rng rng(31);
    constexpr unsigned kBatch = 64;
    std::array<std::uint32_t, kBatch> states;
    const unsigned actions = qv.params().actions;
    std::vector<double> out(kBatch * actions);
    for (auto _ : state) {
        for (std::uint32_t &s : states)
            s = static_cast<std::uint32_t>(rng.next());
        for (unsigned i = 0; i < kBatch; ++i) {
            for (unsigned a = 0; a < actions; ++a)
                out[i * actions + a] = qv.q(states[i], a);
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_QVLookupScalarLoop);

void
BM_QVTrainEpochScalar(benchmark::State &state)
{
    // 32 random SARSA triples through one update() call each.
    struct Triple
    {
        std::uint32_t s;
        unsigned a;
        double reward;
        std::uint32_t sNext;
        unsigned aNext;
    };
    athena::QVStore qv;
    athena::Rng rng(33);
    constexpr unsigned kBatch = 32;
    std::array<Triple, kBatch> triples;
    for (auto _ : state) {
        for (Triple &t : triples) {
            t.s = static_cast<std::uint32_t>(rng.next());
            t.a = static_cast<unsigned>(rng.next() & 3);
            t.reward = 0.5;
            t.sNext = static_cast<std::uint32_t>(rng.next());
            t.aNext = static_cast<unsigned>(rng.next() & 3);
        }
        for (const Triple &t : triples)
            qv.update(t.s, t.a, t.reward, t.sNext, t.aNext);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_QVTrainEpochScalar);

void
BM_BloomInsert(benchmark::State &state)
{
    athena::BloomFilter bloom(4096, 2);
    athena::Rng rng(4);
    for (auto _ : state)
        bloom.insert(rng.next());
}
BENCHMARK(BM_BloomInsert);

void
BM_BloomQuery(benchmark::State &state)
{
    athena::BloomFilter bloom(4096, 2);
    athena::Rng rng(5);
    for (int i = 0; i < 199; ++i)
        bloom.insert(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(bloom.mayContain(rng.next()));
}
BENCHMARK(BM_BloomQuery);

void
BM_CacheAccessHit(benchmark::State &state)
{
    athena::Cache cache(athena::l1dParams());
    // Fill one set's worth of resident lines and hit them round-robin.
    const unsigned ways = cache.params().ways;
    for (unsigned w = 0; w < ways; ++w)
        cache.fill(w * cache.numSets(), w, w, false);
    athena::Cycle now = ways;
    unsigned w = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(w * cache.numSets(), ++now));
        w = (w + 1) % ways;
    }
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessMiss(benchmark::State &state)
{
    athena::Cache cache(athena::l1dParams());
    athena::Rng rng(6);
    athena::Cycle now = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next(), ++now));
}
BENCHMARK(BM_CacheAccessMiss);

void
BM_CacheFillEvict(benchmark::State &state)
{
    athena::Cache cache(athena::l2cParams());
    athena::Rng rng(7);
    athena::Cycle now = 0;
    for (auto _ : state) {
        ++now;
        benchmark::DoNotOptimize(
            cache.fill(rng.next(), now, now, (now & 1) != 0));
    }
}
BENCHMARK(BM_CacheFillEvict);

void
BM_TriggerDispatchFrontDoor(benchmark::State &state)
{
    // The devirtualized observe() front door on a learning
    // prefetcher — the per-access dispatch cost triggerLevel pays
    // per slot (tentpole item 1).
    auto pf = athena::makePrefetcher(
        athena::PrefetcherKind::kPythia, 11);
    athena::Rng rng(8);
    athena::CandidateVec out;
    athena::Cycle now = 0;
    for (auto _ : state) {
        out.clear();
        pf->observe({0x400, rng.next() % (1ull << 30), false, ++now},
                    out);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(BM_TriggerDispatchFrontDoor);

void
BM_TriggerDispatchVirtual(benchmark::State &state)
{
    // Reference: the same kernel through the virtual slot, for
    // eyeballing what the tag dispatch saves.
    auto pf = athena::makePrefetcher(
        athena::PrefetcherKind::kPythia, 11);
    athena::Rng rng(8);
    athena::CandidateVec out;
    athena::Cycle now = 0;
    for (auto _ : state) {
        out.clear();
        pf->observeImpl(
            {0x400, rng.next() % (1ull << 30), false, ++now}, out);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(BM_TriggerDispatchVirtual);

void
BM_StepPicker8Core(benchmark::State &state)
{
    // The multi-core scheduler's pick/advance cycle at fig16 scale
    // (tentpole item 2).
    athena::StepPicker picker(8);
    std::array<athena::Cycle, 8> now{};
    athena::Rng rng(9);
    for (auto _ : state) {
        unsigned pick = picker.top();
        now[pick] += 1 + (rng.next() & 31);
        picker.advance(pick, now[pick]);
        benchmark::DoNotOptimize(pick);
    }
}
BENCHMARK(BM_StepPicker8Core);

void
BM_QVStoreSeparation(benchmark::State &state)
{
    // Algorithm 1's q - meanOfOthers in one row resolution (the
    // Athena degree computation, tentpole item 4).
    athena::QVStore qv;
    athena::Rng rng(10);
    for (auto _ : state) {
        auto s = static_cast<std::uint32_t>(rng.next() & 0xfff);
        benchmark::DoNotOptimize(qv.qSeparation(s, s & 3));
    }
}
BENCHMARK(BM_QVStoreSeparation);

void
BM_FastMod(benchmark::State &state)
{
    athena::FastMod fm(123ull << 20); // non-pow2 footprint
    athena::Rng rng(12);
    for (auto _ : state)
        benchmark::DoNotOptimize(fm.mod(rng.next()));
}
BENCHMARK(BM_FastMod);

void
BM_HardwareMod(benchmark::State &state)
{
    volatile std::uint64_t m = 123ull << 20;
    athena::Rng rng(12);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next() % m);
}
BENCHMARK(BM_HardwareMod);

void
BM_WorkloadNext(benchmark::State &state)
{
    auto workloads = athena::evalWorkloads();
    athena::SyntheticWorkload w(workloads.front());
    for (auto _ : state)
        benchmark::DoNotOptimize(w.next());
}
BENCHMARK(BM_WorkloadNext);

void
BM_WorkloadNextBatch(benchmark::State &state)
{
    // The batched pull the SoA stepping pipeline runs on: 256
    // records per call through the per-pattern emit kernels
    // (compare against 256x BM_WorkloadNext).
    auto workloads = athena::evalWorkloads();
    athena::SyntheticWorkload w(workloads.front());
    std::vector<athena::TraceRecord> buf(256);
    for (auto _ : state) {
        benchmark::DoNotOptimize(w.nextBatch(buf.data(), buf.size()));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_WorkloadNextBatch);

void
BM_CoreStepBatch(benchmark::State &state)
{
    // The core-side half of the batched pipeline: stepN over a
    // synthetic stream against a fixed-latency memory, isolating
    // dispatch/retire/ROB/MSHR bookkeeping from the cache model.
    class FixedMemory : public athena::MemoryInterface
    {
      public:
        athena::Cycle
        load(std::uint64_t, athena::Addr, athena::Cycle issue,
             bool &l1_miss) override
        {
            l1_miss = true;
            return issue + 40;
        }
        void store(std::uint64_t, athena::Addr,
                   athena::Cycle) override
        {}
    };
    auto workloads = athena::evalWorkloads();
    athena::SyntheticWorkload w(workloads.front());
    FixedMemory mem;
    athena::CoreModel core(athena::CoreParams{}, w, mem);
    const std::uint64_t chunk = 4096;
    for (auto _ : state) {
        core.stepN(chunk);
        benchmark::DoNotOptimize(core.now());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * chunk));
}
BENCHMARK(BM_CoreStepBatch);

/**
 * Shared request stream for the DRAM service benchmarks: a
 * realistic mix of row-hit streaks, bank conflicts, and scattered
 * lines, replayed with arrival 0 (a saturated controller, the
 * regime the fig14/fig16 bandwidth sweeps live in).
 */
std::vector<athena::Addr>
dramBenchLines()
{
    std::vector<athena::Addr> lines;
    athena::Rng rng(21);
    athena::Addr cursor = 0;
    while (lines.size() < 4096) {
        switch (rng.next() % 3) {
          case 0: // row-hit streak
            for (unsigned k = 0; k < 8; ++k)
                lines.push_back(cursor++);
            break;
          case 1: // bank conflict
            lines.push_back(cursor + 4096);
            break;
          default: // scatter
            cursor = rng.next() % (1ull << 28);
            lines.push_back(cursor);
            break;
        }
    }
    lines.resize(4096);
    return lines;
}

void
BM_DramServeScalar(benchmark::State &state)
{
    // 32 requests per iteration through the scalar serve() shim
    // (enqueue + drain-of-1 each): the per-request service cost
    // the demand-miss path pays.
    athena::Dram dram{athena::DramParams{}};
    auto lines = dramBenchLines();
    std::size_t i = 0;
    for (auto _ : state) {
        for (unsigned k = 0; k < 32; ++k) {
            benchmark::DoNotOptimize(
                dram.serve(0, lines[i++ & 4095],
                           athena::AccessType::kPrefetch));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_DramServeScalar);

void
BM_DramDrainBatch(benchmark::State &state)
{
    // The same 32 requests enqueued and drained in one batched
    // kernel call — the trigger-window fast path.
    athena::Dram dram{athena::DramParams{}};
    auto lines = dramBenchLines();
    std::size_t i = 0;
    for (auto _ : state) {
        for (unsigned k = 0; k < 32; ++k) {
            dram.enqueue(0, lines[i++ & 4095],
                         athena::AccessType::kPrefetch);
        }
        benchmark::DoNotOptimize(dram.drain().back());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_DramDrainBatch);

void
BM_SimulatorInstruction(benchmark::State &state)
{
    // End-to-end per-instruction cost of the whole engine: core
    // step -> doLoad -> cache chain -> prefetcher observe ->
    // policy/OCP, amortized over a long measured run.
    auto workloads = athena::evalWorkloads();
    athena::SystemConfig cfg = athena::makeDesignConfig(
        athena::CacheDesign::kCd1, athena::PolicyKind::kNaive);
    const std::uint64_t chunk = 100000;
    for (auto _ : state) {
        athena::Simulator sim(cfg, {workloads.front()});
        benchmark::DoNotOptimize(sim.run({chunk, 0}));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * chunk));
}
BENCHMARK(BM_SimulatorInstruction)->Unit(benchmark::kMillisecond);

std::string
snapshotBenchPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

void
BM_SnapshotSave(benchmark::State &state)
{
    // Full-state serialization throughput of a warmed single-core
    // system (every component section + checksums + file write).
    auto workloads = athena::evalWorkloads();
    athena::SystemConfig cfg = athena::makeDesignConfig(
        athena::CacheDesign::kCd1, athena::PolicyKind::kAthena);
    athena::Simulator sim(cfg, {workloads.front()});
    sim.run({50000, 0});
    const std::string path = snapshotBenchPath("bench_save.asnp");
    for (auto _ : state)
        sim.snapshot(path);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(std::filesystem::file_size(path)));
    std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMicrosecond);

void
BM_SnapshotRestore(benchmark::State &state)
{
    // Resume cost: construct the component tree and restore every
    // section (mmap read + checksum verify + field loads).
    auto workloads = athena::evalWorkloads();
    athena::SystemConfig cfg = athena::makeDesignConfig(
        athena::CacheDesign::kCd1, athena::PolicyKind::kAthena);
    athena::Simulator sim(cfg, {workloads.front()});
    sim.run({50000, 0});
    const std::string path = snapshotBenchPath("bench_restore.asnp");
    sim.snapshot(path);
    for (auto _ : state) {
        athena::Simulator restored(cfg, {workloads.front()}, path);
        benchmark::DoNotOptimize(&restored);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(std::filesystem::file_size(path)));
    std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMicrosecond);

void
BM_SharedTurnSpin(benchmark::State &state)
{
    // Uncontended turn-grant cost: beginStep + first ensureTurn of
    // a step when the grant is immediately ready (all peers done),
    // i.e. the per-shared-touch overhead every load/store pays in
    // the parallel engine even without contention. The arg is the
    // slot-array width the grant test scans. Guards the
    // pause->yield->park escalation: the escalation only engages
    // on a failed grant test, so this single-threaded fast path —
    // the 1-bank/1-channel default geometry included — must not
    // regress.
    const auto cores = static_cast<unsigned>(state.range(0));
    athena::ParallelStepper stepper(cores, /*shard_count=*/2,
                                    /*log_sink=*/nullptr);
    for (unsigned c = 1; c < cores; ++c)
        stepper.finish(c);
    athena::Cycle now = 0;
    for (auto _ : state) {
        stepper.beginStep(0, now++);
        stepper.ensureTurn(0, 0);
        benchmark::DoNotOptimize(stepper.grantedThisStep(0));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SharedTurnSpin)->Arg(1)->Arg(4)->Arg(16)->Arg(32);

} // namespace

BENCHMARK_MAIN();
