/**
 * @file
 * Simulator implementation.
 */

#include "sim/simulator.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "athena/agent.hh"
#include "common/env.hh"
#include "coord/simple.hh"
#include "coord/tlp.hh"
#include "sim/step_picker.hh"
#include "sim/thread_pool.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

static_assert(kMaxPrefetchers <= Cache::kSlotLimit,
              "prefetcher slots must fit the cache's slot field");

/**
 * Provisional readyAt for lines filled while their DRAM request is
 * still pending on the controller queue. Never observable: the
 * trigger window's drain patches the real completion cycle in
 * before any lookup can read readyAt, and an eviction beforehand
 * discards it exactly as scalar service would have. The extreme
 * value makes any violation of that invariant loud in the golden
 * and equivalence suites rather than silently plausible.
 */
constexpr Cycle kPendingReady = ~0ull;

std::unique_ptr<CoordinationPolicy>
makePolicy(const SystemConfig &cfg, unsigned num_prefetchers)
{
    switch (cfg.policy) {
      case PolicyKind::kNaive:
        return makeNaivePolicy();
      case PolicyKind::kAllOff:
        return makeAllOffPolicy();
      case PolicyKind::kPfOnly:
        return makePfOnlyPolicy();
      case PolicyKind::kOcpOnly:
        return makeOcpOnlyPolicy();
      case PolicyKind::kTlp:
        return std::make_unique<TlpPolicy>();
      case PolicyKind::kHpac:
        return std::make_unique<HpacPolicy>(cfg.hpac);
      case PolicyKind::kMab:
        return std::make_unique<MabPolicy>(num_prefetchers, cfg.mab);
      case PolicyKind::kAthena:
        return std::make_unique<AthenaAgent>(cfg.athena);
    }
    throw std::logic_error("unknown policy kind");
}

} // namespace

/** Adapter binding one core's memory traffic to the simulator. */
class CoreMemAdapter : public MemoryInterface
{
  public:
    CoreMemAdapter(Simulator &sim, unsigned core)
        : sim(sim), core(core)
    {}

    Cycle
    load(std::uint64_t pc, Addr addr, Cycle issue,
         bool &l1_miss) override
    {
        return sim.doLoad(core, pc, addr, issue, l1_miss);
    }

    void
    store(std::uint64_t pc, Addr addr, Cycle cycle) override
    {
        sim.doStore(core, pc, addr, cycle);
    }

  private:
    Simulator &sim;
    unsigned core;
};

/**
 * The DRAM-bound prefetch fills collected inside one trigger
 * window (one triggerLevel call): each entry remembers which cache
 * levels were eagerly filled with a provisional readyAt so the
 * window's single Dram::drain() can patch the real completion
 * cycles in, index-aligned with the controller queue. Lives on the
 * trigger path's stack — no heap traffic.
 */
struct Simulator::PrefetchFillBatch
{
    /**
     * One level's patch target: the coordinates of the eager fill
     * (set base + way from CacheEviction::filledWay + packed key),
     * so delivering the completion is one tag compare and a store.
     * No default member initializers: the batch lives on the stack
     * of every triggerLevel call, and value-initialized entries
     * would zero the whole buffer per access.
     */
    struct Target
    {
        std::size_t base;
        std::uint64_t key;
        std::uint8_t way;
    };

    struct Entry
    {
        Target l1; ///< Valid when fillsL1.
        Target l2;
        Target llc;
        /** Queue slot of the DRAM request (channel + index). */
        ChanneledDram::Ticket ticket;
        /** LLC bank the eager fill landed in. */
        std::uint16_t llcBank;
        bool fillsL1;
    };

    /** One trigger window is at most slots x CandidateVec capacity
     *  candidates; a full batch mid-window just drains early, which
     *  is semantics-preserving (patches commute and the controller
     *  services strictly in enqueue order either way). */
    static constexpr unsigned kCapacity = 48;

    Entry buf[kCapacity];
    unsigned count = 0;

    bool empty() const { return count == 0; }
    bool full() const { return count == kCapacity; }
    void clear() { count = 0; }

    static Target
    target(const CacheRef &r, std::uint8_t way)
    {
        return {r.base, r.key, way};
    }

    void push(const Entry &e) { buf[count++] = e; }
};

/** All per-core state. */
struct Simulator::CoreCtx
{
    std::unique_ptr<WorkloadGenerator> workload;
    std::unique_ptr<CoreMemAdapter> adapter;
    std::unique_ptr<CoreModel> core;

    Cache l1;
    Cache l2;

    /** Prefetcher slots (at most kMaxPrefetchers). */
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    /**
     * Slot indices per trigger level (0 = L1D, 1 = L2C), computed
     * once at construction so the per-access trigger loop touches
     * only the prefetchers that actually observe that level instead
     * of virtual-dispatching level() on every slot.
     */
    std::array<std::vector<std::uint8_t>, 2> levelSlots;
    std::unique_ptr<OffChipPredictor> ocp;
    std::unique_ptr<CoordinationPolicy> policy;

    CoordDecision decision; ///< Applied for the current epoch.

    /** Capability flags cached off the policy at construction so
     *  the access path skips virtual no-op hook calls. */
    bool policyObservesDemands = false;
    bool policyFiltersPrefetches = false;

    /** Per-epoch window counters (policy telemetry). */
    EpochStats window;
    std::uint64_t epochStartInstr = 0;
    Cycle epochStartCycle = 0;
    CoreCounters epochStartCounters;
    std::uint64_t lastBusBusy = 0; ///< Global bus-busy snapshot.
    DramCounters lastDram;         ///< Global DRAM count snapshot.

    /** Prefetch-induced LLC pollution tracker (section 5.2.3). */
    BloomFilter pollutionBloom{4096, 2};

    /** Cumulative diagnostics. */
    std::array<PrefetcherSlotStats, kMaxPrefetchers> pfStats{};
    std::uint64_t ocpPredictions = 0;
    std::uint64_t ocpCorrect = 0;
    std::uint64_t llcMissesTotal = 0;
    std::uint64_t llcMissLatencyTotal = 0;

    std::string workloadName;

    CoreCtx(const CacheParams &l1p, const CacheParams &l2p)
        : l1(l1p), l2(l2p)
    {}
};

Simulator::Simulator(const SystemConfig &config,
                     const std::vector<WorkloadSpec> &workloads)
    : cfg(config)
{
    if (workloads.size() != cfg.cores) {
        throw std::invalid_argument(
            "workload count must equal core count");
    }

    if (cfg.llcBanks < 1 || cfg.dramChannels < 1 ||
        cfg.llcBanks + cfg.dramChannels > SharedShard::kMaxShards) {
        throw std::invalid_argument(
            "llcBanks and dramChannels must each be >= 1 and sum "
            "to at most " + std::to_string(SharedShard::kMaxShards));
    }

    llc = std::make_unique<BankedLlc>(llcParams(cfg.cores),
                                      cfg.llcBanks);
    dram = std::make_unique<ChanneledDram>(dramParams(cfg),
                                           cfg.dramChannels);

    latL1 = l1dParams().latency;
    latL2 = latL1 + l2cParams().latency;
    latLlc = latL2 + llc->params().latency;

    for (unsigned c = 0; c < cfg.cores; ++c) {
        auto ctx = std::make_unique<CoreCtx>(l1dParams(), l2cParams());
        ctx->workloadName = workloads[c].name;
        ctx->workload = makeWorkload(workloads[c]);

        // Prefetcher slots in a fixed order: L1D first, then L2Cs.
        if (cfg.l1dPf != PrefetcherKind::kNone) {
            ctx->prefetchers.push_back(makePrefetcher(
                cfg.l1dPf, cfg.seed + c, CacheLevel::kL1D));
        }
        if (cfg.l2cPf != PrefetcherKind::kNone) {
            ctx->prefetchers.push_back(
                makePrefetcher(cfg.l2cPf, cfg.seed + 17 * (c + 1),
                               CacheLevel::kL2C));
        }
        if (cfg.l2cPf2 != PrefetcherKind::kNone) {
            ctx->prefetchers.push_back(
                makePrefetcher(cfg.l2cPf2, cfg.seed + 31 * (c + 1),
                               CacheLevel::kL2C));
        }
        if (ctx->prefetchers.size() > kMaxPrefetchers)
            throw std::invalid_argument("too many prefetchers");
        for (unsigned s = 0; s < ctx->prefetchers.size(); ++s) {
            unsigned lvl = ctx->prefetchers[s]->level() ==
                                   CacheLevel::kL1D
                               ? 0
                               : 1;
            ctx->levelSlots[lvl].push_back(
                static_cast<std::uint8_t>(s));
        }

        ctx->ocp = makeOcp(cfg.ocp);
        ctx->policy = makePolicy(
            cfg, static_cast<unsigned>(ctx->prefetchers.size()));
        ctx->policyObservesDemands =
            ctx->policy->observesDemandStream();
        ctx->policyFiltersPrefetches =
            ctx->policy->filtersPrefetches();
        ctx->adapter = std::make_unique<CoreMemAdapter>(*this, c);
        ctx->core = std::make_unique<CoreModel>(
            cfg.core, *ctx->workload, *ctx->adapter);
        // Prime the knobs with the policy's decision for an empty
        // epoch so static policies (e.g. all-off) take effect from
        // cycle 0; learning policies treat the empty epoch as their
        // cold start.
        ctx->decision = ctx->policy->onEpochEnd(EpochStats{});
        coreCtxs.push_back(std::move(ctx));
    }

    measure.starts.assign(cfg.cores, MeasureStart{});
    measure.started.assign(cfg.cores, 0);
}

Simulator::Simulator(const SystemConfig &config,
                     const std::vector<WorkloadSpec> &workloads,
                     const std::string &resume_from)
    : Simulator(config, workloads)
{
    SnapshotReader r(resume_from);
    restoreFrom(r);
}

Simulator::~Simulator() = default;

CoordinationPolicy &
Simulator::policy(unsigned core)
{
    return *coreCtxs.at(core)->policy;
}

void
Simulator::dispatchPrefetchFeedbackUsed(unsigned core,
                                        const CacheLookup &res,
                                        Cycle demand_cycle)
{
    CoreCtx &cc = *coreCtxs[core];
    if (!res.firstPrefetchTouch ||
        res.pfSlot == Cache::kNoFeedbackSlot)
        return;
    if (res.pfSlot >= cc.prefetchers.size())
        return;
    bool timely = res.readyAt <= demand_cycle;
    PrefetcherSlotStats &ps = cc.pfStats[res.pfSlot];
    ++ps.used;
    if (timely)
        ++ps.usedTimely;
    ++cc.window.pfUsed[res.pfSlot];
    cc.prefetchers[res.pfSlot]->onPrefetchUsed(res.pfMeta, timely);
}

void
Simulator::handleLlcEviction(unsigned core, const CacheEviction &ev)
{
    CoreCtx &cc = *coreCtxs[core];
    if (!ev.evictedValid)
        return;
    // A line leaving the LLC leaves the chip, as far as the OCP's
    // residency tracking is concerned.
    if (cc.ocp)
        cc.ocp->onEvict(ev.evictedLine);
    // Prefetch-caused evictions feed the pollution tracker of the
    // core whose prefetch caused the fill.
    if (ev.causedByPrefetch)
        cc.pollutionBloom.insert(ev.evictedLine);
}

void
Simulator::triggerLevel(unsigned core, CacheLevel level,
                        std::uint64_t pc, Addr addr, bool hit,
                        Cycle cycle)
{
    CoreCtx &cc = *coreCtxs[core];
    const auto &slots =
        cc.levelSlots[level == CacheLevel::kL1D ? 0 : 1];
    if (slots.empty())
        return;
    // The trigger window owns the DRAM controller queue: every
    // off-chip prefetch this window generates is enqueued and the
    // whole window drains in one batched call below. Outside
    // trigger windows the queue is empty (demand/OCP/store traffic
    // goes through the scalar serve() shim), so the global request
    // order is exactly the scalar issue order. Under the parallel
    // engine the queue may only be inspected while this core holds
    // the shared-state turn (another core's window owns it
    // otherwise).
    assert((par && !par->grantedThisStep(core)) ||
           dram->pendingRequests() == 0);
    PrefetchFillBatch batch;
    // Candidate buffer on the stack of the access path: no heap
    // traffic, and the tag-dispatched observe() below is a direct
    // call (see Prefetcher::observe).
    CandidateVec scratch;
    const PrefetchTrigger trigger{pc, addr, hit, cycle};
    for (unsigned slot : slots) {
        Prefetcher &pf = *cc.prefetchers[slot];
        // A gated prefetcher still *trains* on the demand stream
        // (its tables are hardware that observes lookups); only
        // issuing is suppressed. Without this, a learning
        // coordinator that disables a learning prefetcher starves
        // it of training and can never discover that re-enabling
        // it would help.
        bool gated = !cc.decision.pfEnabled(slot) || pf.degree() == 0;
        scratch.clear();
        pf.observe(trigger, scratch);
        for (const PrefetchCandidate &cand : scratch) {
            if (gated)
                pf.onPrefetchDropped(cand.meta);
            else
                issuePrefetch(core, slot, cand, pc, cycle, batch);
        }
    }
    if (!batch.empty())
        drainPrefetchFills(cc, batch);
}

void
Simulator::drainPrefetchFills(CoreCtx &cc, PrefetchFillBatch &batch)
{
    // One batched service per channel for the whole window:
    // bank/row decoded once per request, row-hit streaks resolved
    // bank-locally, counters published per batch (see Dram::drain).
    // Each channel's completions come back index-aligned with that
    // channel's enqueue order, which is exactly what the entries'
    // tickets recorded at enqueue time.
    std::span<const Cycle> spans[ChanneledDram::kMaxChannels];
    const unsigned channels = dram->channelCount();
#ifndef NDEBUG
    std::size_t drained = 0;
#endif
    for (unsigned ch = 0; ch < channels; ++ch) {
        spans[ch] = dram->drainChannel(ch);
#ifndef NDEBUG
        drained += spans[ch].size();
#endif
    }
    assert(drained == batch.count);
    for (unsigned i = 0; i < batch.count; ++i) {
        const PrefetchFillBatch::Entry &e = batch.buf[i];
        const Cycle at = spans[e.ticket.channel][e.ticket.index];
        llc->patchReadyAt(e.llcBank, e.llc.base, e.llc.way,
                          e.llc.key, at);
        cc.l2.patchReadyAt(e.l2.base, e.l2.way, e.l2.key, at);
        if (e.fillsL1)
            cc.l1.patchReadyAt(e.l1.base, e.l1.way, e.l1.key, at);
    }
    batch.clear();
}

void
Simulator::issuePrefetch(unsigned core, unsigned slot,
                         const PrefetchCandidate &cand,
                         std::uint64_t trigger_pc, Cycle cycle,
                         PrefetchFillBatch &batch)
{
    CoreCtx &cc = *coreCtxs[core];
    Prefetcher &pf = *cc.prefetchers[slot];
    Addr line = cand.lineNum;

    if (cc.policyFiltersPrefetches &&
        cc.policy->filterPrefetch(pf.level(), trigger_pc,
                                  lineBase(line))) {
        pf.onPrefetchDropped(cand.meta);
        return;
    }

    bool from_dram = false;
    Cycle ready;

    if (pf.level() == CacheLevel::kL1D) {
        // One ref per level, shared by the probe/touch and the fill.
        const CacheRef l1ref = cc.l1.ref(line);
        const CacheRef l2ref = cc.l2.ref(line);
        if (cc.l1.contains(l1ref)) {
            pf.onPrefetchDropped(cand.meta); // already resident
            return;
        }
        PrefetchFillBatch::Entry patch{};
        if (cc.l2.touch(l2ref)) {
            ready = cycle + latL2;
        } else {
            // First shared-resource touch on this path: the LLC
            // bank owning the line.
            const BankedRef llcref = llc->ref(line);
            sharedTurn(core, llcref.bank);
            if (llc->touch(llcref)) {
                ready = cycle + latLlc;
            } else {
                // Off-chip: enqueue on the owning channel's
                // controller queue and fill every level eagerly
                // with a provisional readyAt — the real completion
                // cycle is patched in when the trigger window
                // drains (drainPrefetchFills), addressed by the
                // enqueue ticket. Cache state otherwise evolves
                // exactly as under scalar service: same probe
                // order, same fills, same victims, same LRU stamps.
                if (batch.full())
                    drainPrefetchFills(cc, batch);
                patch.ticket = dram->enqueue(
                    cycle + latLlc, line, AccessType::kPrefetch);
                sharedTurn(core, dramShard(patch.ticket.channel));
                ready = kPendingReady;
                from_dram = true;
                CacheEviction ev =
                    llc->fill(llcref, cycle, ready, true,
                              Cache::kNoFeedbackSlot, 0, true);
                patch.llc = PrefetchFillBatch::target(
                    llcref.ref, ev.filledWay);
                patch.llcBank =
                    static_cast<std::uint16_t>(llcref.bank);
                handleLlcEviction(core, ev);
                if (cc.ocp)
                    cc.ocp->onFill(line);
            }
        }
        // Fill the intermediate L2 on an off-chip prefetch path.
        if (from_dram) {
            CacheEviction l2ev =
                cc.l2.fill(l2ref, cycle, ready, true,
                           Cache::kNoFeedbackSlot, 0, true);
            patch.l2 =
                PrefetchFillBatch::target(l2ref, l2ev.filledWay);
        }
        CacheEviction ev =
            cc.l1.fill(l1ref, cycle, ready, true,
                       static_cast<std::uint8_t>(slot), cand.meta,
                       from_dram);
        if (ev.evictedUnusedPrefetch &&
            ev.evictedPfSlot < cc.prefetchers.size()) {
            PrefetcherSlotStats &eps = cc.pfStats[ev.evictedPfSlot];
            ++eps.uselessEvictions;
            if (ev.evictedPfFromDram)
                ++eps.fillsFromDramUnused;
            cc.prefetchers[ev.evictedPfSlot]->onPrefetchUseless(
                ev.evictedPfMeta);
        }
        if (from_dram) {
            patch.l1 = PrefetchFillBatch::target(l1ref, ev.filledWay);
            patch.fillsL1 = true;
            batch.push(patch);
        }
    } else { // kL2C
        const CacheRef l2ref = cc.l2.ref(line);
        if (cc.l2.contains(l2ref)) {
            pf.onPrefetchDropped(cand.meta);
            return;
        }
        const BankedRef llcref = llc->ref(line);
        PrefetchFillBatch::Entry patch{};
        // First shared-resource touch on the L2C prefetch path:
        // the LLC bank owning the line.
        sharedTurn(core, llcref.bank);
        if (llc->touch(llcref)) {
            ready = cycle + latLlc;
        } else {
            // Off-chip: same deferred-completion protocol as the
            // L1 path above, without the L1 fill.
            if (batch.full())
                drainPrefetchFills(cc, batch);
            patch.ticket = dram->enqueue(cycle + latLlc, line,
                                         AccessType::kPrefetch);
            sharedTurn(core, dramShard(patch.ticket.channel));
            ready = kPendingReady;
            from_dram = true;
            CacheEviction ev = llc->fill(llcref, cycle, ready, true,
                                         Cache::kNoFeedbackSlot, 0, true);
            patch.llc = PrefetchFillBatch::target(llcref.ref,
                                                  ev.filledWay);
            patch.llcBank = static_cast<std::uint16_t>(llcref.bank);
            handleLlcEviction(core, ev);
            if (cc.ocp)
                cc.ocp->onFill(line);
        }
        CacheEviction ev =
            cc.l2.fill(l2ref, cycle, ready, true,
                       static_cast<std::uint8_t>(slot), cand.meta,
                       from_dram);
        if (ev.evictedUnusedPrefetch &&
            ev.evictedPfSlot < cc.prefetchers.size()) {
            PrefetcherSlotStats &eps = cc.pfStats[ev.evictedPfSlot];
            ++eps.uselessEvictions;
            if (ev.evictedPfFromDram)
                ++eps.fillsFromDramUnused;
            cc.prefetchers[ev.evictedPfSlot]->onPrefetchUseless(
                ev.evictedPfMeta);
        }
        if (from_dram) {
            patch.l2 = PrefetchFillBatch::target(l2ref, ev.filledWay);
            batch.push(patch);
        }
    }

    PrefetcherSlotStats &ps = cc.pfStats[slot];
    ++ps.issued;
    if (from_dram)
        ++ps.fillsFromDram;
    ++cc.window.pfIssued[slot];
}

Cycle
Simulator::doLoad(unsigned core, std::uint64_t pc, Addr addr,
                  Cycle issue, bool &l1_miss)
{
    CoreCtx &cc = *coreCtxs[core];
    Addr line = lineNumber(addr);

    // Off-chip prediction happens as soon as the address is known.
    bool ocp_pred = false;
    if (cc.ocp && cc.decision.ocpEnable)
        ocp_pred = cc.ocp->predictDemand(pc, addr);

    bool went_offchip = false;
    Cycle completion;

    // Fused L1 -> L2 -> LLC demand walk: each level's coordinates
    // are computed exactly once and feed both the lookup and any
    // fill on the refill path. The dominant outcome — an MRU-way L1
    // hit on a plain demand line — resolves through the inline fast
    // probe without the full lookup (identical state updates).
    const CacheRef l1ref = cc.l1.ref(line);
    Cycle fast_ready;
    if (cc.l1.accessHitFast(l1ref, issue, fast_ready)) {
        if (!cc.levelSlots[0].empty()) {
            triggerLevel(core, CacheLevel::kL1D, pc, addr, true,
                         issue);
        }
        l1_miss = false;
        completion = std::max(issue + latL1, fast_ready);
        // Falls through to the shared demand-resolution tail below
        // (OCP accounting/training, policy hook, epoch check) with
        // went_offchip == false.
    } else {
        CacheLookup l1res = cc.l1.access(l1ref, issue);
        triggerLevel(core, CacheLevel::kL1D, pc, addr, l1res.hit,
                     issue);
        l1_miss = !l1res.hit;
        if (l1res.hit) {
            dispatchPrefetchFeedbackUsed(core, l1res, issue);
            completion = std::max(issue + latL1, l1res.readyAt);
        } else {
            const CacheRef l2ref = cc.l2.ref(line);
            CacheLookup l2res = cc.l2.access(l2ref, issue);
            triggerLevel(core, CacheLevel::kL2C, pc, addr,
                         l2res.hit, issue);
            if (l2res.hit) {
                dispatchPrefetchFeedbackUsed(core, l2res, issue);
                completion = std::max(issue + latL2, l2res.readyAt);
                cc.l1.fill(l1ref, issue, completion, false);
            } else {
                const BankedRef llcref = llc->ref(line);
                // Leaving the private L1/L2 hierarchy: the LLC
                // bank lookup (and any DRAM service behind it)
                // must commit in the sequential schedule's order.
                sharedTurn(core, llcref.bank);
                CacheLookup llcres = llc->access(llcref, issue);
                if (llcres.hit) {
                    dispatchPrefetchFeedbackUsed(core, llcres,
                                                 issue);
                    completion =
                        std::max(issue + latLlc, llcres.readyAt);
                    cc.l2.fill(l2ref, issue, completion, false);
                    cc.l1.fill(l1ref, issue, completion, false);
                } else {
                    went_offchip = true;
                    if (cc.pollutionBloom.mayContain(line))
                        ++cc.window.pollutionMisses;

                    Cycle done;
                    sharedTurn(core,
                               dramShard(dram->channelOf(line)));
                    if (ocp_pred) {
                        // Hermes path: the speculative request
                        // reaches the controller after the OCP
                        // request issue latency, hiding the on-chip
                        // lookup from the off-chip critical path.
                        done =
                            dram->serve(issue + cfg.ocpIssueLatency,
                                        line, AccessType::kOcp);
                        completion = std::max(done, issue + latL1);
                    } else {
                        done = dram->serve(issue + latLlc, line,
                                           AccessType::kDemandLoad);
                        completion = done;
                    }

                    CacheEviction ev =
                        llc->fill(llcref, issue, completion, false);
                    handleLlcEviction(core, ev);
                    cc.l2.fill(l2ref, issue, completion, false);
                    cc.l1.fill(l1ref, issue, completion, false);
                    if (cc.ocp)
                        cc.ocp->onFill(line);

                    ++cc.window.llcMisses;
                    cc.window.llcMissLatency += completion - issue;
                    ++cc.llcMissesTotal;
                    cc.llcMissLatencyTotal += completion - issue;
                }
                ++cc.window.llcDemandAccesses;
            }
        }
    }

    // A false-positive OCP prediction wasted one DRAM transfer.
    // Reachable without a prior LLC touch (on-chip hit), so it
    // takes the shared-state turn itself.
    if (ocp_pred && !went_offchip) {
        sharedTurn(core, dramShard(dram->channelOf(line)));
        dram->serve(issue + cfg.ocpIssueLatency, line,
                    AccessType::kOcp);
    }

    if (ocp_pred) {
        ++cc.window.ocpPredictions;
        ++cc.ocpPredictions;
        if (went_offchip) {
            ++cc.window.ocpCorrect;
            ++cc.ocpCorrect;
        }
    }
    if (cc.ocp && cc.decision.ocpEnable)
        cc.ocp->trainDemand(pc, addr, went_offchip);
    if (cc.policyObservesDemands)
        cc.policy->onDemandResolved(pc, addr, went_offchip);

    maybeEndEpoch(core);
    return completion;
}

void
Simulator::doStore(unsigned core, std::uint64_t pc, Addr addr,
                   Cycle cycle)
{
    CoreCtx &cc = *coreCtxs[core];
    Addr line = lineNumber(addr);

    const CacheRef l1ref = cc.l1.ref(line);
    Cycle fast_ready;
    if (cc.l1.accessHitFast(l1ref, cycle, fast_ready)) {
        if (!cc.levelSlots[0].empty()) {
            triggerLevel(core, CacheLevel::kL1D, pc, addr, true,
                         cycle);
        }
        return;
    }
    CacheLookup l1res = cc.l1.access(l1ref, cycle);
    triggerLevel(core, CacheLevel::kL1D, pc, addr, l1res.hit, cycle);
    if (l1res.hit) {
        dispatchPrefetchFeedbackUsed(core, l1res, cycle);
        return;
    }
    const CacheRef l2ref = cc.l2.ref(line);
    CacheLookup l2res = cc.l2.access(l2ref, cycle);
    triggerLevel(core, CacheLevel::kL2C, pc, addr, l2res.hit, cycle);
    if (l2res.hit) {
        dispatchPrefetchFeedbackUsed(core, l2res, cycle);
        cc.l1.fill(l1ref, cycle, cycle + latL2, false);
        return;
    }
    const BankedRef llcref = llc->ref(line);
    // Leaving the private hierarchy (store walk).
    sharedTurn(core, llcref.bank);
    CacheLookup llcres = llc->access(llcref, cycle);
    if (llcres.hit) {
        dispatchPrefetchFeedbackUsed(core, llcres, cycle);
        cc.l2.fill(l2ref, cycle, cycle + latLlc, false);
        cc.l1.fill(l1ref, cycle, cycle + latLlc, false);
        return;
    }
    // Write-allocate from DRAM; off the critical path but the
    // traffic is real.
    sharedTurn(core, dramShard(dram->channelOf(line)));
    Cycle done =
        dram->serve(cycle + latLlc, line, AccessType::kDemandStore);
    CacheEviction ev = llc->fill(llcref, cycle, done, false);
    handleLlcEviction(core, ev);
    cc.l2.fill(l2ref, cycle, done, false);
    cc.l1.fill(l1ref, cycle, done, false);
    if (cc.ocp)
        cc.ocp->onFill(line);
}

void
Simulator::maybeEndEpoch(unsigned core)
{
    CoreCtx &cc = *coreCtxs[core];
    std::uint64_t retired = cc.core->retired();
    if (retired < cc.epochStartInstr + cfg.epochInstructions)
        return;

    Cycle now = cc.core->now();
    const CoreCounters &cs = cc.core->counters();

    EpochStats stats = cc.window;
    stats.instructions = retired - cc.epochStartInstr;
    stats.cycles = now > cc.epochStartCycle
                       ? now - cc.epochStartCycle
                       : 1;
    stats.loads = cs.loads - cc.epochStartCounters.loads;
    stats.branches = cs.branches - cc.epochStartCounters.branches;
    stats.branchMispredicts =
        cs.branchMispredicts - cc.epochStartCounters.branchMispredicts;

    // The epoch summary samples the aggregate DRAM counters across
    // every channel; that read must see exactly the traffic the
    // sequential schedule ordered before this step, on all of them.
    sharedTurnAllDram(core);
    const DramCounters &life = dram->lifetime();
    stats.dramDemand = life.demandRequests - cc.lastDram.demandRequests;
    stats.dramPrefetch =
        life.prefetchRequests - cc.lastDram.prefetchRequests;
    stats.dramOcp = life.ocpRequests - cc.lastDram.ocpRequests;
    double busy = static_cast<double>(life.busBusyCycles -
                                      cc.lastBusBusy);
    // Busy cycles are summed across channels, and each channel can
    // be busy for the whole window — normalize by the channel count
    // so the feature stays a fraction of provisioned bandwidth
    // (identical to the historical formula at 1 channel).
    stats.bandwidthUsage =
        std::min(1.0, busy / static_cast<double>(stats.cycles) /
                          static_cast<double>(cfg.cores) /
                          static_cast<double>(cfg.dramChannels));

    cc.decision = cc.policy->onEpochEnd(stats);

    // Apply the decision: prefetcher degrees (Algorithm 1's d) and
    // per-epoch bandwidth feedback for Pythia-style prefetchers.
    for (unsigned slot = 0; slot < cc.prefetchers.size(); ++slot) {
        Prefetcher &pf = *cc.prefetchers[slot];
        auto d = static_cast<unsigned>(
            std::floor(cc.decision.degreeScale[slot] *
                       static_cast<double>(pf.maxDegree())));
        // An *enabled* prefetcher runs at degree >= 1: throttling
        // to zero would both contradict the enable decision and
        // starve a learning policy of the evidence that prefetching
        // can help.
        if (cc.decision.pfEnabled(slot) && d == 0)
            d = 1;
        pf.setDegree(d);
        pf.onEpochEnd(stats.bandwidthUsage);
    }

    // Reset the epoch window (section 5.2: trackers cleared).
    cc.window = EpochStats{};
    cc.epochStartInstr = retired;
    cc.epochStartCycle = now;
    cc.epochStartCounters = cs;
    cc.lastDram = life;
    cc.lastBusBusy = life.busBusyCycles;
    cc.pollutionBloom.clear();
}

SimResult
Simulator::run(const RunPlan &plan)
{
    const std::uint64_t warmup_per_core = plan.warmup;
    std::uint64_t total = plan.measured + plan.warmup;

    if (resumed) {
        // The snapshot froze the measurement bookkeeping mid-plan;
        // continuing under a different warmup would splice two
        // different measurement windows together.
        if (plan.warmup != resumeWarmup) {
            throw std::invalid_argument(
                "resumed run must use the warmup length its "
                "snapshot was taken at");
        }
    } else {
        measure.starts.assign(cfg.cores, MeasureStart{});
        measure.started.assign(cfg.cores, 0);
        measure.dramAtStart = DramCounters{};
        measure.maxNowAtStart = 0;
        measure.anyStarted = false;
        resumeWarmup = plan.warmup;
    }

    bool want_snapshot = !plan.snapshotAfterWarmup.empty();

    auto check_warmup = [&](unsigned c) {
        checkWarmup(c, warmup_per_core);
    };

    // The warmup-snapshot cut: the first inter-step point at which
    // every core has either crossed the warmup boundary or
    // exhausted its stream. Any inter-step point would restore
    // bit-identically (the stepping schedule is a pure function of
    // the component state); this particular cut is the earliest one
    // at which the remaining work is exactly the measured window.
    auto all_past_warmup = [&]() {
        for (unsigned c = 0; c < cfg.cores; ++c) {
            if (!measure.started[c] && !coreCtxs[c]->core->finished())
                return false;
        }
        return true;
    };
    auto maybe_snapshot = [&]() {
        if (want_snapshot && all_past_warmup()) {
            snapshot(plan.snapshotAfterWarmup);
            want_snapshot = false;
        }
    };

    if (cfg.cores == 1) {
        CoreCtx &cc = *coreCtxs[0];
        // Batched stepping up to the warmup boundary, then in one
        // drain — preserving the post-step snapshot semantics of
        // the generic path (the measurement snapshot lands after
        // the step that crosses the warmup boundary; for
        // warmup == 0 it lands after the first step, hence the max
        // with 1). A finite stream may end inside either span
        // (stepN returns short exactly then); the measurement
        // start is only sampled if the boundary was actually
        // reached. On a resumed simulator the core is already at
        // (or past) the boundary, so the first span is empty.
        std::uint64_t boundary = std::min(
            total, std::max<std::uint64_t>(warmup_per_core, 1));
        if (cc.core->retired() < boundary) {
            cc.core->stepN(boundary - cc.core->retired());
            check_warmup(0);
        }
        maybe_snapshot();
        if (!cc.core->finished() && cc.core->retired() < total)
            cc.core->stepN(total - cc.core->retired());
    } else {
        // Size the per-shard oracle before either engine appends
        // (the parallel stepper sizes it too; this covers the
        // sequential engine and keeps both identically shaped).
        if (stepLog)
            stepLog->shards.resize(totalShards());

        const bool use_par = useParallelEngine(plan);

        // Sequential engine: step the globally least-advanced
        // unfinished core to keep the cores loosely synchronized so
        // shared-resource contention is meaningful. The picker is
        // an indexed min-heap: O(log cores) per step instead of an
        // O(cores) rescan, with deterministic lowest-index-first
        // ties. The inner loop keeps stepping the picked core while
        // it would be re-picked anyway (stillTop), so batch-pulled
        // cores pay one heap sift per *burst* rather than per
        // instruction — the stepping order is bit-identical to the
        // one-instruction-per-pick schedule.
        // A core retires from the pick set either at its
        // instruction budget or the moment its finite stream
        // exhausts (finished()); the survivors keep the exact
        // least-advanced ordering — StepPicker::finish preserves
        // the heap invariant — so finish order and all counters
        // are a pure function of the per-core trajectories.
        //
        // Resume: rebuilding the picker from the restored per-core
        // frontiers reproduces the original continuation exactly.
        // The effective schedule is argmin over (now, core index) —
        // stillTop's burst batching produces "exactly the order
        // advance()+top() per instruction would" — so the heap
        // holding every unfinished core at its current frontier is
        // the same scheduler state the straight-through run was in
        // at the cut. Cores that had already left the pick set
        // (stream exhausted, or budget reached under this plan) are
        // finished out before the loop starts.
        //
        // Under the parallel engine this loop still runs the
        // pre-snapshot span: the warmup snapshot must be cut at the
        // exact sequential inter-step boundary, which concurrently
        // running cores would overshoot. until_snapshot makes it
        // return at that boundary (any inter-step point resumes
        // bit-identically — the schedule is a pure function of the
        // component state), handing the remainder to the parallel
        // engine.
        auto seq_engine = [&](bool until_snapshot) {
            StepPicker picker(cfg.cores);
            for (unsigned c = 0; c < cfg.cores; ++c)
                picker.advance(c, coreCtxs[c]->core->now());
            for (unsigned c = 0; c < cfg.cores; ++c) {
                CoreCtx &cc = *coreCtxs[c];
                if (cc.core->finished() ||
                    cc.core->retired() >= total) {
                    picker.finish(c);
                }
            }
            const bool logging = stepLog != nullptr;
            while (!picker.empty()) {
                unsigned pick = picker.top();
                CoreCtx &cc = *coreCtxs[pick];
                for (;;) {
                    if (cc.core->finished()) {
                        picker.finish(pick);
                        maybe_snapshot();
                        break;
                    }
                    if (logging) {
                        // Open the oracle record for this step:
                        // its key is the pre-step frontier, the
                        // same (now, core) pair the picker ordered
                        // by and the parallel engine's bound. The
                        // step stays open across all its shared
                        // touches; each shard logs at most once.
                        seqLogKey = cc.core->now();
                        seqLogOpen = true;
                        seqLoggedMask = 0;
                    }
                    cc.core->step();
                    check_warmup(pick);
                    seqLogOpen = false;
                    maybe_snapshot();
                    if (until_snapshot && !want_snapshot)
                        return;
                    if (cc.core->retired() >= total) {
                        picker.finish(pick);
                        break;
                    }
                    if (!picker.stillTop(pick, cc.core->now())) {
                        picker.advance(pick, cc.core->now());
                        break;
                    }
                }
                if (until_snapshot && !want_snapshot)
                    return;
            }
            // All streams may exhaust before any warmup crossing;
            // the snapshot request is still honored at the
            // terminal state.
            maybe_snapshot();
        };

        if (!use_par)
            seq_engine(false);
        else if (want_snapshot)
            seq_engine(true);
        if (use_par)
            runMultiParallel(total, warmup_per_core);
        maybe_snapshot();
    }

    SimResult result;
    Cycle max_now = 0;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        CoreCtx &cc = *coreCtxs[c];
        const MeasureStart &ms = measure.starts[c];
        SimResult::PerCore pc;
        pc.workload = cc.workloadName;
        pc.completedInstructions = cc.core->retired();
        pc.streamExhausted = cc.core->finished();
        pc.instructions = cc.core->retired() - ms.instr;
        Cycle cyc = cc.core->now() > ms.cycle
                        ? cc.core->now() - ms.cycle
                        : 1;
        pc.cycles = cyc;
        pc.ipc = static_cast<double>(pc.instructions) /
                 static_cast<double>(cyc);
        pc.loads = cc.core->counters().loads - ms.loads;
        pc.stores = cc.core->counters().stores - ms.stores;
        pc.branchMispredicts =
            cc.core->counters().branchMispredicts - ms.mispredicts;
        pc.llcMisses = cc.llcMissesTotal - ms.llcMisses;
        pc.llcMissLatency =
            cc.llcMissLatencyTotal - ms.llcMissLatency;
        pc.pf = cc.pfStats;
        pc.ocpPredictions = cc.ocpPredictions;
        pc.ocpCorrect = cc.ocpCorrect;
        pc.actionHistogram = cc.policy->actionHistogram();
        result.cores.push_back(std::move(pc));
        max_now = std::max(max_now, cc.core->now());
    }

    const DramCounters &life = dram->lifetime();
    const DramCounters &at0 = measure.dramAtStart;
    result.dram.demandRequests =
        life.demandRequests - at0.demandRequests;
    result.dram.prefetchRequests =
        life.prefetchRequests - at0.prefetchRequests;
    result.dram.ocpRequests = life.ocpRequests - at0.ocpRequests;
    result.dram.rowHits = life.rowHits - at0.rowHits;
    result.dram.rowMisses = life.rowMisses - at0.rowMisses;
    result.dram.busBusyCycles =
        life.busBusyCycles - at0.busBusyCycles;
    Cycle window = max_now > measure.maxNowAtStart
                       ? max_now - measure.maxNowAtStart
                       : 1;
    // Aggregate utilization across channels: busy cycles are summed
    // over every channel's bus, so the window is scaled by the
    // channel count (identical to the historical formula at 1
    // channel).
    result.busUtilization = std::min(
        1.0, static_cast<double>(result.dram.busBusyCycles) /
                 static_cast<double>(window) /
                 static_cast<double>(cfg.dramChannels));
    return result;
}

void
Simulator::checkWarmup(unsigned c, std::uint64_t warmup_per_core)
{
    CoreCtx &cc = *coreCtxs[c];
    if (measure.started[c] || cc.core->retired() < warmup_per_core)
        return;
    // The per-core start sample touches only this core's state and
    // needs no ordering.
    measure.started[c] = 1;
    measure.starts[c] = {cc.core->retired(), cc.core->now(),
                         cc.core->counters().loads,
                         cc.core->counters().stores,
                         cc.core->counters().branchMispredicts,
                         cc.llcMissesTotal,
                         cc.llcMissLatencyTotal};
    // The global measurement anchor (DRAM counters, wall-clock
    // frontier) is shared state: sample it in commit order so the
    // first core to cross warmup — first in the *schedule*, not in
    // wall-clock arrival — anchors the window, exactly as under
    // the sequential engine. The sample reads every channel's
    // counters.
    sharedTurnAllDram(c);
    if (!measure.anyStarted) {
        measure.anyStarted = true;
        measure.dramAtStart = dram->lifetime();
        measure.maxNowAtStart = cc.core->now();
    }
}

void
Simulator::seqLogCommit(unsigned core, unsigned shard)
{
    const std::uint64_t bit = std::uint64_t{1} << shard;
    if (seqLoggedMask & bit)
        return;
    seqLoggedMask |= bit;
    stepLog->shards[shard].emplace_back(core, seqLogKey);
}

unsigned
Simulator::resolveStepThreads(const RunPlan &plan)
{
    unsigned t = plan.stepThreads;
    if (t == 0)
        t = static_cast<unsigned>(
            envUnsigned("ATHENA_STEP_THREADS", 0, UINT_MAX));
    if (t == 0) {
        t = std::thread::hardware_concurrency();
        if (t == 0)
            t = 1;
    }
    return t;
}

bool
Simulator::useParallelEngine(const RunPlan &plan) const
{
    if (cfg.cores < 2)
        return false;
    // Never stack per-core stepping threads on top of a fleet of
    // concurrent simulations (ExperimentRunner::parallelFor): the
    // fleet already owns the host's parallelism, and a nested
    // ThreadPool::run would execute inline-serially and leave the
    // stepping cores parked forever.
    if (ThreadPool::onWorkerThread() || ThreadPool::inPooledRun())
        return false;
    return resolveStepThreads(plan) >= cfg.cores;
}

void
Simulator::runMultiParallel(std::uint64_t total_per_core,
                            std::uint64_t warmup_per_core)
{
    ParallelStepper stepper(cfg.cores, totalShards(), stepLog);
    par = &stepper;

    auto worker = [&](std::size_t idx) {
        const unsigned c = static_cast<unsigned>(idx);
        CoreCtx &cc = *coreCtxs[c];
        CoreModel &core = *cc.core;
        while (!core.finished() &&
               core.retired() < total_per_core) {
            // The bound publication is simultaneously this step's
            // park key, the other cores' lookahead heartbeat, and
            // the previous step's grant release.
            stepper.beginStep(c, core.now());
            core.step();
            checkWarmup(c, warmup_per_core);
        }
        stepper.finish(c);
    };

    // Vehicle: the persistent pool when it is wide enough for
    // thread-per-core stepping (its workers plus this thread),
    // dedicated threads otherwise — parked cores only spin/yield,
    // so correctness never depends on the host actually having
    // cores many hardware threads.
    ThreadPool &pool = ThreadPool::instance();
    if (pool.workerCount() + 1 >= cfg.cores) {
        pool.run(cfg.cores, worker);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(cfg.cores - 1);
        for (unsigned c = 1; c < cfg.cores; ++c)
            threads.emplace_back(worker, c);
        worker(0);
        for (auto &t : threads)
            t.join();
    }
    par = nullptr;
}

namespace
{

void
writeDramCounterBlock(SnapshotWriter &w, const DramCounters &d)
{
    w.u64(d.demandRequests);
    w.u64(d.prefetchRequests);
    w.u64(d.ocpRequests);
    w.u64(d.rowHits);
    w.u64(d.rowMisses);
    w.u64(d.busBusyCycles);
}

void
readDramCounterBlock(SnapshotReader &r, DramCounters &d)
{
    d.demandRequests = r.u64();
    d.prefetchRequests = r.u64();
    d.ocpRequests = r.u64();
    d.rowHits = r.u64();
    d.rowMisses = r.u64();
    d.busBusyCycles = r.u64();
}

void
writeCoreCounterBlock(SnapshotWriter &w, const CoreCounters &c)
{
    w.u64(c.instructions);
    w.u64(c.loads);
    w.u64(c.stores);
    w.u64(c.branches);
    w.u64(c.branchMispredicts);
}

void
readCoreCounterBlock(SnapshotReader &r, CoreCounters &c)
{
    c.instructions = r.u64();
    c.loads = r.u64();
    c.stores = r.u64();
    c.branches = r.u64();
    c.branchMispredicts = r.u64();
}

/** Per-core section tag: "c<i>/<what>". */
std::string
coreTag(unsigned core, const char *what)
{
    return "c" + std::to_string(core) + "/" + what;
}

} // namespace

void
Simulator::snapshot(const std::string &path) const
{
    SnapshotWriter w;
    saveTo(w);
    w.writeFile(path);
}

/*
 * Section layout. Every component writes its own tagged section so
 * a corrupted or geometry-mismatched snapshot fails with an error
 * naming the component, and sections can evolve independently
 * behind the file-level version:
 *
 *   meta       config content hash + core count + shard geometry
 *   resume     plan warmup + measurement-window bookkeeping
 *   llc/b<i>   one section per LLC bank
 *   dram/ch<j> one section per DRAM channel
 *   c<i>/wl     workload generator cursors
 *   c<i>/core   core pipeline + branch predictor
 *   c<i>/l1, c<i>/l2
 *   c<i>/pf<s>  prefetcher slot s
 *   c<i>/ocp    off-chip predictor (present when configured)
 *   c<i>/policy coordination policy learned state
 *   c<i>/epoch  epoch window + decision + diagnostics counters
 */
void
Simulator::saveTo(SnapshotWriter &w) const
{
    w.beginSection("meta");
    w.u64(cfg.configKey());
    w.u32(cfg.cores);
    w.u32(cfg.llcBanks);
    w.u32(cfg.dramChannels);
    w.endSection();

    w.beginSection("resume");
    w.u64(resumeWarmup);
    w.boolean(measure.anyStarted);
    writeDramCounterBlock(w, measure.dramAtStart);
    w.u64(measure.maxNowAtStart);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        const MeasureStart &ms = measure.starts[c];
        w.boolean(measure.started[c] != 0);
        w.u64(ms.instr);
        w.u64(ms.cycle);
        w.u64(ms.loads);
        w.u64(ms.stores);
        w.u64(ms.mispredicts);
        w.u64(ms.llcMisses);
        w.u64(ms.llcMissLatency);
    }
    w.endSection();

    for (unsigned b = 0; b < llc->bankCount(); ++b) {
        w.beginSection("llc/b" + std::to_string(b));
        llc->bank(b).saveState(w);
        w.endSection();
    }

    for (unsigned ch = 0; ch < dram->channelCount(); ++ch) {
        w.beginSection("dram/ch" + std::to_string(ch));
        dram->channel(ch).saveState(w);
        w.endSection();
    }

    for (unsigned c = 0; c < cfg.cores; ++c) {
        const CoreCtx &cc = *coreCtxs[c];

        w.beginSection(coreTag(c, "wl"));
        cc.workload->saveState(w);
        w.endSection();

        w.beginSection(coreTag(c, "core"));
        cc.core->saveState(w);
        w.endSection();

        w.beginSection(coreTag(c, "l1"));
        cc.l1.saveState(w);
        w.endSection();

        w.beginSection(coreTag(c, "l2"));
        cc.l2.saveState(w);
        w.endSection();

        for (unsigned s = 0; s < cc.prefetchers.size(); ++s) {
            w.beginSection(coreTag(c, "pf") + std::to_string(s));
            cc.prefetchers[s]->saveState(w);
            w.endSection();
        }

        if (cc.ocp) {
            w.beginSection(coreTag(c, "ocp"));
            cc.ocp->saveState(w);
            w.endSection();
        }

        w.beginSection(coreTag(c, "policy"));
        cc.policy->saveState(w);
        w.endSection();

        w.beginSection(coreTag(c, "epoch"));
        writeCoordDecision(w, cc.decision);
        writeEpochStats(w, cc.window);
        w.u64(cc.epochStartInstr);
        w.u64(cc.epochStartCycle);
        writeCoreCounterBlock(w, cc.epochStartCounters);
        w.u64(cc.lastBusBusy);
        writeDramCounterBlock(w, cc.lastDram);
        cc.pollutionBloom.saveState(w);
        for (const PrefetcherSlotStats &ps : cc.pfStats) {
            w.u64(ps.issued);
            w.u64(ps.used);
            w.u64(ps.usedTimely);
            w.u64(ps.uselessEvictions);
            w.u64(ps.fillsFromDram);
            w.u64(ps.fillsFromDramUnused);
        }
        w.u64(cc.ocpPredictions);
        w.u64(cc.ocpCorrect);
        w.u64(cc.llcMissesTotal);
        w.u64(cc.llcMissLatencyTotal);
        w.endSection();
    }
}

void
Simulator::restoreFrom(SnapshotReader &r)
{
    r.openSection("meta");
    const std::uint64_t key = r.u64();
    const std::uint32_t snap_cores = r.u32();
    const std::uint32_t snap_banks = r.u32();
    const std::uint32_t snap_channels = r.u32();
    // Shard-geometry guards run before the config-key comparison so
    // a cross-geometry snapshot fails with an error naming the
    // mismatched dimension (the key differs too — llcBanks and
    // dramChannels are hashed — but "config key mismatch" would
    // hide which knob moved).
    if (snap_banks != cfg.llcBanks) {
        throw SnapshotError(
            "meta", "LLC bank count mismatch: snapshot has " +
                        std::to_string(snap_banks) +
                        ", configuration wants " +
                        std::to_string(cfg.llcBanks));
    }
    if (snap_channels != cfg.dramChannels) {
        throw SnapshotError(
            "meta", "DRAM channel count mismatch: snapshot has " +
                        std::to_string(snap_channels) +
                        ", configuration wants " +
                        std::to_string(cfg.dramChannels));
    }
    if (snap_cores != cfg.cores) {
        throw SnapshotError(
            "meta", "core count mismatch: snapshot has " +
                        std::to_string(snap_cores) +
                        ", configuration wants " +
                        std::to_string(cfg.cores));
    }
    if (key != cfg.configKey()) {
        throw SnapshotError(
            "meta",
            "snapshot was taken under a different system "
            "configuration (config key mismatch)");
    }

    r.openSection("resume");
    resumeWarmup = r.u64();
    measure.anyStarted = r.boolean();
    readDramCounterBlock(r, measure.dramAtStart);
    measure.maxNowAtStart = r.u64();
    measure.starts.assign(cfg.cores, MeasureStart{});
    measure.started.assign(cfg.cores, 0);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        MeasureStart &ms = measure.starts[c];
        measure.started[c] = r.boolean() ? 1 : 0;
        ms.instr = r.u64();
        ms.cycle = r.u64();
        ms.loads = r.u64();
        ms.stores = r.u64();
        ms.mispredicts = r.u64();
        ms.llcMisses = r.u64();
        ms.llcMissLatency = r.u64();
    }

    for (unsigned b = 0; b < llc->bankCount(); ++b) {
        r.openSection("llc/b" + std::to_string(b));
        llc->bank(b).restoreState(r);
    }

    for (unsigned ch = 0; ch < dram->channelCount(); ++ch) {
        r.openSection("dram/ch" + std::to_string(ch));
        dram->channel(ch).restoreState(r);
    }

    for (unsigned c = 0; c < cfg.cores; ++c) {
        CoreCtx &cc = *coreCtxs[c];

        r.openSection(coreTag(c, "wl"));
        cc.workload->restoreState(r);

        r.openSection(coreTag(c, "core"));
        cc.core->restoreState(r);

        r.openSection(coreTag(c, "l1"));
        cc.l1.restoreState(r);

        r.openSection(coreTag(c, "l2"));
        cc.l2.restoreState(r);

        for (unsigned s = 0; s < cc.prefetchers.size(); ++s) {
            r.openSection(coreTag(c, "pf") + std::to_string(s));
            cc.prefetchers[s]->restoreState(r);
        }

        if (cc.ocp) {
            r.openSection(coreTag(c, "ocp"));
            cc.ocp->restoreState(r);
        }

        r.openSection(coreTag(c, "policy"));
        cc.policy->restoreState(r);

        r.openSection(coreTag(c, "epoch"));
        readCoordDecision(r, cc.decision);
        readEpochStats(r, cc.window);
        cc.epochStartInstr = r.u64();
        cc.epochStartCycle = r.u64();
        readCoreCounterBlock(r, cc.epochStartCounters);
        cc.lastBusBusy = r.u64();
        readDramCounterBlock(r, cc.lastDram);
        cc.pollutionBloom.restoreState(r);
        for (PrefetcherSlotStats &ps : cc.pfStats) {
            ps.issued = r.u64();
            ps.used = r.u64();
            ps.usedTimely = r.u64();
            ps.uselessEvictions = r.u64();
            ps.fillsFromDram = r.u64();
            ps.fillsFromDramUnused = r.u64();
        }
        cc.ocpPredictions = r.u64();
        cc.ocpCorrect = r.u64();
        cc.llcMissesTotal = r.u64();
        cc.llcMissLatencyTotal = r.u64();
    }

    resumed = true;
}

} // namespace athena
