/**
 * @file
 * Core timing model implementation.
 *
 * The per-instruction kernel runs against a HotState of plain
 * locals (dispatch/retire/ring/MSHR cursors, counters, frontier)
 * rather than members: the memory-hierarchy callback is an opaque
 * virtual call, so member state would be reloaded and spilled
 * around every load and store the trace executes. The externally
 * observable pieces — the counters and the completion frontier,
 * which the simulator's epoch logic reads *during* the memory
 * callback — are published to the members immediately before each
 * MemoryInterface call, which is exactly when the one-at-a-time
 * model's updates were last visible.
 */

#include "cpu/core_model.hh"

#include <algorithm>
#include <cassert>

#include "snapshot/snapshot.hh"

namespace athena
{

CoreModel::CoreModel(const CoreParams &params, WorkloadGenerator &wl,
                     MemoryInterface &mem)
    : cfg(params), workload(wl), memory(mem)
{
    // Zero-entry windows are meaningless (the full-window retire
    // and the MSHR-full stall would both underflow empty arrays);
    // clamp both to their 1-entry minimum.
    if (cfg.robSize == 0)
        cfg.robSize = 1;
    if (cfg.l1Mshrs == 0)
        cfg.l1Mshrs = 1;
    arena.assign(cfg.robSize + cfg.l1Mshrs + 1, 0);
    robArr = arena.data();
    mshrArr = arena.data() + cfg.robSize;
    batchBuf.resize(kBatchCapacity);
}

bool
CoreModel::refillBatch()
{
    if (streamDone)
        return false;
    batchPos = 0;
    batchLen = static_cast<unsigned>(
        workload.nextBatch(batchBuf.data(), kBatchCapacity));
    // A short return is the end-of-stream signal (only legal there,
    // per the WorkloadGenerator contract); latch it so the
    // generator is never re-entered past its end.
    if (batchLen < kBatchCapacity)
        streamDone = true;
    return batchLen > 0;
}

/**
 * The register-resident slice of the core state. Loaded from the
 * members before a batch span, stored back after; the kernel
 * mutates only this and the SoA arrays, publishing the observable
 * slice to the members at MemoryInterface call boundaries.
 */
struct CoreModel::HotState
{
    Cycle dispatchCycle;
    unsigned dispatchSlots;
    unsigned robHead;
    unsigned robCount;
    Cycle lastRetireCycle;
    unsigned retireSlots;
    unsigned mshrCount;
    Cycle prevLoadComplete;
    Cycle frontier;
    CoreCounters stats;
};

CoreModel::HotState
CoreModel::loadHot() const
{
    return {dispatchCycle, dispatchSlots, robHead,
            robCount,      lastRetireCycle, retireSlots,
            mshrCount,     prevLoadComplete, frontier, stats};
}

void
CoreModel::storeHot(const HotState &h)
{
    dispatchCycle = h.dispatchCycle;
    dispatchSlots = h.dispatchSlots;
    robHead = h.robHead;
    robCount = h.robCount;
    lastRetireCycle = h.lastRetireCycle;
    retireSlots = h.retireSlots;
    mshrCount = h.mshrCount;
    prevLoadComplete = h.prevLoadComplete;
    frontier = h.frontier;
    stats = h.stats;
}

/**
 * Publish the externally observable slice (counters + frontier)
 * before a MemoryInterface call: the simulator's epoch logic reads
 * retired(), counters() and now() from *inside* doLoad/doStore, at
 * which point they must be exactly what the one-at-a-time model
 * would show. Store-only — the hot loop never reloads them.
 */
void
CoreModel::publishObservable(const HotState &h)
{
    stats = h.stats;
    frontier = h.frontier;
}

inline Cycle
CoreModel::execute(const TraceRecord &rec, HotState &h)
{
    // ROB occupancy: dispatching a new instruction requires the
    // oldest one to have retired once the window is full. At most
    // one head retires per dispatched instruction, so occupancy
    // never exceeds robSize (asserted below).
    if (h.robCount >= cfg.robSize) {
        // Retire the ROB head under the commit-width constraint.
        Cycle completion = robArr[h.robHead];
        h.robHead =
            h.robHead + 1 == cfg.robSize ? 0 : h.robHead + 1;
        --h.robCount;
        Cycle freed = std::max(completion, h.lastRetireCycle);
        if (freed == h.lastRetireCycle) {
            if (h.retireSlots >= cfg.width) {
                ++freed;
                h.retireSlots = 1;
            } else {
                ++h.retireSlots;
            }
        } else {
            h.retireSlots = 1;
        }
        h.lastRetireCycle = freed;
        if (freed > h.dispatchCycle) {
            h.dispatchCycle = freed;
            h.dispatchSlots = 0;
        }
    }

    // Dispatch-width constraint.
    if (h.dispatchSlots >= cfg.width) {
        ++h.dispatchCycle;
        h.dispatchSlots = 0;
    }
    ++h.dispatchSlots;
    Cycle disp = h.dispatchCycle;

    ++h.stats.instructions;

    Cycle completion = disp + cfg.aluLatency;
    switch (rec.kind) {
      case InstrKind::kAlu:
        break;
      case InstrKind::kBranch:
        {
            ++h.stats.branches;
            bool correct =
                branchPredictor.predictAndTrain(rec.pc, rec.taken);
            if (!correct) {
                ++h.stats.branchMispredicts;
                // Redirect: no further dispatch until the branch
                // resolves plus the refill penalty.
                Cycle resume = completion + cfg.mispredictPenalty;
                if (resume > h.dispatchCycle) {
                    h.dispatchCycle = resume;
                    h.dispatchSlots = 0;
                }
            }
            break;
        }
      case InstrKind::kStore:
        {
            ++h.stats.stores;
            publishObservable(h);
            memory.store(rec.pc, rec.addr, disp);
            break;
        }
      case InstrKind::kLoad:
        {
            ++h.stats.loads;
            publishObservable(h);
            Cycle issue = disp;
            if (rec.dependsOnPrevLoad)
                issue = std::max(issue, h.prevLoadComplete);

            // MSHR occupancy: drain completed misses, then stall
            // issue until a slot frees (the earliest completion)
            // if still full.
            for (unsigned k = 0; k < h.mshrCount;) {
                if (mshrArr[k] <= issue)
                    mshrArr[k] = mshrArr[--h.mshrCount];
                else
                    ++k;
            }
            if (h.mshrCount >= cfg.l1Mshrs) {
                unsigned m = 0;
                for (unsigned k = 1; k < h.mshrCount; ++k) {
                    if (mshrArr[k] < mshrArr[m])
                        m = k;
                }
                issue = mshrArr[m];
                mshrArr[m] = mshrArr[--h.mshrCount];
            }

            bool l1_miss = false;
            completion = memory.load(rec.pc, rec.addr, issue, l1_miss);
            if (l1_miss)
                mshrArr[h.mshrCount++] = completion;
            h.prevLoadComplete = completion;
            // A near-term consumer gates the front end on this
            // load's value: dependent work cannot dispatch until
            // the data arrives.
            if (rec.criticalConsumer && completion > h.dispatchCycle) {
                h.dispatchCycle = completion;
                h.dispatchSlots = 0;
            }
            break;
        }
    }

    // Append to the ROB ring (capacity guaranteed by the retire
    // above).
    unsigned tail = h.robHead + h.robCount;
    if (tail >= cfg.robSize)
        tail -= cfg.robSize;
    robArr[tail] = completion;
    ++h.robCount;
    assert(h.robCount <= cfg.robSize);
    if (completion > h.frontier)
        h.frontier = completion;
    return completion;
}

Cycle
CoreModel::step()
{
    if (batchPos == batchLen && !refillBatch())
        return frontier; // exhausted stream: terminal no-op
    HotState h = loadHot();
    Cycle completion = execute(batchBuf[batchPos++], h);
    storeHot(h);
    return completion;
}

std::uint64_t
CoreModel::stepN(std::uint64_t n)
{
    HotState h = loadHot();
    std::uint64_t remaining = n;
    while (remaining > 0) {
        if (batchPos == batchLen && !refillBatch())
            break; // exhausted stream: report the short count
        unsigned span = batchLen - batchPos;
        std::uint64_t take = remaining < span ? remaining : span;
        const TraceRecord *rec = batchBuf.data() + batchPos;
        // batchPos is committed before the span runs: the records
        // are already buffered, and the kernel never re-enters the
        // workload generator.
        batchPos += static_cast<unsigned>(take);
        remaining -= take;
        for (std::uint64_t i = 0; i < take; ++i)
            execute(rec[i], h);
    }
    storeHot(h);
    return n - remaining;
}

void
CoreModel::reset()
{
    workload.reset();
    branchPredictor.reset();
    dispatchCycle = 0;
    dispatchSlots = 0;
    robHead = 0;
    robCount = 0;
    lastRetireCycle = 0;
    retireSlots = 0;
    mshrCount = 0;
    prevLoadComplete = 0;
    frontier = 0;
    batchPos = 0;
    batchLen = 0;
    streamDone = false;
    stats = CoreCounters{};
}

void
CoreModel::saveState(SnapshotWriter &w) const
{
    w.u32(cfg.robSize);
    w.u32(cfg.l1Mshrs);
    w.u64(dispatchCycle);
    w.u32(dispatchSlots);
    w.u32(robHead);
    w.u32(robCount);
    w.u64(lastRetireCycle);
    w.u32(retireSlots);
    w.u32(mshrCount);
    w.u64(prevLoadComplete);
    w.u64(frontier);
    w.u64(stats.instructions);
    w.u64(stats.loads);
    w.u64(stats.stores);
    w.u64(stats.branches);
    w.u64(stats.branchMispredicts);
    for (Cycle c : arena)
        w.u64(c);
    w.u32(batchPos);
    w.u32(batchLen);
    w.boolean(streamDone);
    // Buffered records that have been pulled from the generator but
    // not yet executed: the generator's cursor is already past them,
    // so they must travel with the core.
    for (unsigned i = batchPos; i < batchLen; ++i) {
        const TraceRecord &rec = batchBuf[i];
        w.u64(rec.pc);
        w.u64(rec.addr);
        w.u8(static_cast<std::uint8_t>(rec.kind));
        w.boolean(rec.taken);
        w.boolean(rec.dependsOnPrevLoad);
        w.boolean(rec.criticalConsumer);
    }
    branchPredictor.saveState(w);
}

void
CoreModel::restoreState(SnapshotReader &r)
{
    r.expectU32(cfg.robSize, "core ROB size");
    r.expectU32(cfg.l1Mshrs, "core MSHR count");
    dispatchCycle = r.u64();
    dispatchSlots = r.u32();
    robHead = r.u32();
    robCount = r.u32();
    lastRetireCycle = r.u64();
    retireSlots = r.u32();
    mshrCount = r.u32();
    prevLoadComplete = r.u64();
    frontier = r.u64();
    stats.instructions = r.u64();
    stats.loads = r.u64();
    stats.stores = r.u64();
    stats.branches = r.u64();
    stats.branchMispredicts = r.u64();
    for (Cycle &c : arena)
        c = r.u64();
    batchPos = r.u32();
    batchLen = r.u32();
    if (batchLen > kBatchCapacity || batchPos > batchLen) {
        throw SnapshotError(r.currentSection(),
                            "core batch cursors out of range "
                            "(corrupted snapshot)");
    }
    streamDone = r.boolean();
    for (unsigned i = batchPos; i < batchLen; ++i) {
        TraceRecord &rec = batchBuf[i];
        rec.pc = r.u64();
        rec.addr = r.u64();
        rec.kind = static_cast<InstrKind>(r.u8());
        rec.taken = r.boolean();
        rec.dependsOnPrevLoad = r.boolean();
        rec.criticalConsumer = r.boolean();
    }
    branchPredictor.restoreState(r);
}

} // namespace athena
