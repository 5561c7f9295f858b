/**
 * @file
 * Out-of-order core timing model.
 *
 * A cycle-approximate Golden-Cove-like core (Table 5): 6-wide
 * dispatch/commit, 512-entry ROB occupancy limit, 17-cycle branch
 * misprediction redirect (driven by a real gshare predictor), and
 * MSHR-bounded memory-level parallelism. Loads flagged as dependent
 * on the previous load serialize, which is what gives pointer-chase
 * workloads their characteristic MLP of ~1.
 *
 * The model processes the trace in program order and computes a
 * completion cycle per instruction; commit is modelled through the
 * ROB-occupancy constraint (instruction i cannot dispatch before
 * instruction i - ROB_SIZE has retired).
 *
 * Stepping is batched: records are pulled from the workload
 * generator a few hundred at a time (WorkloadGenerator::nextBatch)
 * into a contiguous buffer, and the ROB ring and MSHR slots live in
 * one contiguous arena, so the per-instruction loop touches three
 * flat arrays instead of bouncing between objects. step() executes
 * one instruction from the buffer (the multi-core interleaving
 * path); stepN() drains whole buffer spans in a tight loop (the
 * single-core path). Both orderings are bit-identical.
 *
 * Streams may be finite: a short nextBatch() return is the
 * generator's end-of-stream signal (never a refill hiccup — see the
 * WorkloadGenerator contract), after which the core executes the
 * records it already holds and enters a terminal retired-all state
 * (finished()). Every fetched instruction's completion is already
 * folded into now() and counters() at that point — the model
 * computes completion cycles at dispatch, so there is no separate
 * in-flight state left to drain — and further step()/stepN() calls
 * are no-ops.
 */

#ifndef ATHENA_CPU_CORE_MODEL_HH
#define ATHENA_CPU_CORE_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/branch_predictor.hh"
#include "trace/workload.hh"

namespace athena
{

class SnapshotReader;
class SnapshotWriter;

/**
 * Interface the core uses to access the memory hierarchy. The
 * concrete implementation (sim::MemorySystem) runs caches,
 * prefetchers, the off-chip predictor and the coordination policy.
 */
class MemoryInterface
{
  public:
    virtual ~MemoryInterface() = default;

    /**
     * Timed demand load.
     *
     * @param pc          load instruction PC
     * @param addr        effective byte address
     * @param issue_cycle cycle the load issues from the core
     * @param[out] l1_miss true if the access missed the L1D
     * @return absolute cycle at which the load's data is available
     */
    virtual Cycle load(std::uint64_t pc, Addr addr, Cycle issue_cycle,
                       bool &l1_miss) = 0;

    /**
     * Demand store (write-allocate). Off the critical path; only
     * traffic and cache state are modelled.
     */
    virtual void store(std::uint64_t pc, Addr addr,
                       Cycle issue_cycle) = 0;
};

/** Core configuration (Table 5). */
struct CoreParams
{
    unsigned width = 6;             ///< Fetch/dispatch/commit width.
    unsigned robSize = 512;
    unsigned mispredictPenalty = 17;
    unsigned l1Mshrs = 16;          ///< Bound on outstanding L1 misses.
    unsigned aluLatency = 1;
};

/** Cumulative core counters (sampled by the epoch logic). */
struct CoreCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
};

/**
 * The core model. Instructions come from the workload generator in
 * batches; execute them one at a time via step() or in bulk via
 * stepN().
 */
class CoreModel
{
  public:
    CoreModel(const CoreParams &params, WorkloadGenerator &workload,
              MemoryInterface &memory);

    // Not copyable: robArr/mshrArr point into the member arena, so
    // a copy's cursors would alias the source's allocation.
    CoreModel(const CoreModel &) = delete;
    CoreModel &operator=(const CoreModel &) = delete;

    /**
     * Execute one instruction; returns its completion cycle. On an
     * exhausted stream (finished()) this is a no-op returning the
     * current frontier.
     */
    Cycle step();

    /**
     * Execute up to @p n instructions in buffer-sized spans and
     * return the count executed. Identical semantics to calling
     * step() @p n times, without the per-instruction call and
     * refill checks; the return is short only when the workload
     * stream ended (after which finished() is true).
     */
    std::uint64_t stepN(std::uint64_t n);

    /**
     * Terminal retired-all state: the workload stream ended and
     * every record it produced has executed. now() and counters()
     * are final. Never true for infinite (synthetic) streams.
     */
    bool finished() const
    {
        return streamDone && batchPos == batchLen;
    }

    /** Committed-frontier time: max completion cycle seen so far. */
    Cycle now() const { return frontier; }

    const CoreCounters &counters() const { return stats; }

    /** Retired instruction count. */
    std::uint64_t retired() const { return stats.instructions; }

    /** Current ROB occupancy (invariant: <= params().robSize). */
    unsigned robOccupancy() const { return robCount; }

    /** Workload records pulled per nextBatch() refill (~8 KB). */
    static constexpr unsigned kBatchCapacity = 256;

    /** IPC over the whole run so far. */
    double ipc() const
    {
        return frontier == 0
                   ? 0.0
                   : static_cast<double>(stats.instructions) /
                         static_cast<double>(frontier);
    }

    void reset();

    /**
     * Snapshot contract: geometry guard (robSize, l1Mshrs), the
     * pipeline cursors, the ROB/MSHR arena, the buffered (not yet
     * executed) trace records, the end-of-stream latch, counters,
     * and the nested branch predictor. The workload generator's
     * own cursor state is serialized separately by the simulator.
     */
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);

  private:
    /**
     * The register-resident slice of the core state (dispatch,
     * retire, ring and MSHR cursors), loaded before a batch span
     * and stored back after so the kernel is not forced to spill
     * members around every opaque MemoryInterface call.
     */
    struct HotState;

    HotState loadHot() const;
    void storeHot(const HotState &h);

    /** Publish counters + frontier before a MemoryInterface call
     *  (the epoch logic reads them from inside doLoad/doStore). */
    void publishObservable(const HotState &h);

    /** Execute one trace record (the per-instruction kernel). */
    Cycle execute(const TraceRecord &rec, HotState &h);

    /**
     * Pull the next record batch from the workload generator.
     * Returns false when the stream is exhausted and no records
     * were produced (a short, non-empty batch still returns true;
     * exhaustion is latched so the generator is never re-entered
     * past its end).
     */
    bool refillBatch();

    CoreParams cfg;
    WorkloadGenerator &workload;
    MemoryInterface &memory;
    BranchPredictor branchPredictor;

    Cycle dispatchCycle = 0;
    unsigned dispatchSlots = 0;

    /**
     * SoA arena backing the two per-instruction cycle arrays:
     *   [0, robSize)                    ROB ring
     *   [robSize, robSize + mshrs + 1)  MSHR completion slots
     * One allocation, one cache-friendly span, no per-structure
     * vector headers on the hot path.
     */
    std::vector<Cycle> arena;
    Cycle *robArr = nullptr;  ///< Ring of completion cycles.
    Cycle *mshrArr = nullptr; ///< Unsorted outstanding-miss slots.

    /**
     * ROB: completion cycles in program order, as a fixed-capacity
     * ring (capacity robSize; occupancy never exceeds it because
     * execute() retires the head before dispatching into a full
     * window).
     */
    unsigned robHead = 0;  ///< Index of the oldest entry.
    unsigned robCount = 0; ///< Current occupancy.
    Cycle lastRetireCycle = 0;
    unsigned retireSlots = 0;

    /**
     * Outstanding L1-miss completions (MSHR occupancy). A small
     * unsorted array: the model only ever needs "drain everything
     * <= issue" and "extract the minimum when full", both linear
     * over at most l1Mshrs (16) entries — cheaper than heap
     * maintenance on the per-load path, with identical semantics
     * (the structure is a multiset; removal order is unobservable).
     */
    unsigned mshrCount = 0;

    Cycle prevLoadComplete = 0;
    Cycle frontier = 0;

    /** Prefetched workload records (refilled via nextBatch). */
    std::vector<TraceRecord> batchBuf;
    unsigned batchPos = 0;
    unsigned batchLen = 0;
    /** Latched once nextBatch() returns short: end-of-stream. */
    bool streamDone = false;

    CoreCounters stats;
};

} // namespace athena

#endif // ATHENA_CPU_CORE_MODEL_HH
