/**
 * @file
 * Set-associative cache model with LRU replacement and
 * prefetch-fill metadata.
 *
 * The model is functional + latency-annotated: lookups and fills are
 * instantaneous state updates; the timing contribution of each level
 * is the fixed round-trip latency from Table 5, applied by the
 * memory system that composes the levels. Lines carry prefetch
 * provenance so accuracy, timeliness, pollution (section 5.2.3) and
 * the Fig. 3 off-chip-fill statistics can be measured exactly.
 */

#ifndef ATHENA_MEM_CACHE_HH
#define ATHENA_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/shard.hh"

namespace athena
{

class SnapshotReader;
class SnapshotWriter;

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 48 << 10;
    unsigned ways = 12;
    /** Round-trip latency of this level (cycles, cumulative model). */
    Cycle latency = 5;
};

/** Result of a lookup. */
struct CacheLookup
{
    bool hit = false;
    /** The line had been brought in by a prefetch and this is the
     *  first demand touch (prefetch "used"). */
    bool firstPrefetchTouch = false;
    /** Prefetcher credit token stored at fill time. */
    std::uint64_t pfMeta = 0;
    /** Which prefetcher (slot index) filled it. */
    std::uint8_t pfSlot = 0;
    /** Cycle at which the line's data is available (late prefetch). */
    Cycle readyAt = 0;
    /** The prefetch that brought the line was filled from DRAM. */
    bool pfFromDram = false;
};

/** Result of a fill (eviction information). */
struct CacheEviction
{
    bool evictedValid = false;
    Addr evictedLine = 0;
    /** Evicted line was a prefetch never touched by a demand. */
    bool evictedUnusedPrefetch = false;
    std::uint64_t evictedPfMeta = 0;
    std::uint8_t evictedPfSlot = 0;
    bool evictedPfFromDram = false;
    /** The fill that caused this eviction was itself a prefetch. */
    bool causedByPrefetch = false;
    /** Way the line landed in (or already occupied on a resident
     *  refill) — lets deferred-completion patches address the line
     *  by index instead of re-scanning the set (patchReadyAt). */
    std::uint8_t filledWay = 0;
};

/**
 * Precomputed lookup coordinates of one line in this cache level:
 * the set base offset, the packed tag key, and the line number.
 * The demand walk computes one CacheRef per level per access and
 * reuses it across the lookup -> fill sequence, so the set/tag
 * arithmetic runs once instead of once per cache operation.
 */
struct CacheRef
{
    std::size_t base = 0;  ///< setIndex * ways into the way arrays.
    std::uint64_t key = 0; ///< Packed (tag << 1) | valid.
    Addr line = 0;         ///< The line number (fill metadata).
};

/**
 * One cache level. Indexed by cache-line number (byte addr >> 6).
 *
 * Host layout: every per-line field lives in its own row-major
 * (set * ways + way) array, 29 host bytes per simulated line — the
 * u64 lookup key, a u32 LRU stamp, one attribute byte (prefetched,
 * off-chip, prefetcher slot), and the u64 readyAt and pfMeta —
 * plus one MRU-hint byte per set. The simulated caches are almost
 * all of a simulator's host memory (a 4-core system simulates
 * ~280k lines), so the budget is pinned by test_cache.
 */
class Cache
{
  public:
    /**
     * @throw std::invalid_argument unless sizeBytes is exactly a
     *        power-of-two number of sets of `ways` lines (ways in
     *        [1, 255]). Rounding would silently simulate a smaller
     *        cache than configured.
     */
    explicit Cache(const CacheParams &params);

    /**
     * Fill slot of lines that must not generate prefetcher
     * feedback (the LLC/L2 copies of an off-chip prefetch).
     */
    static constexpr std::uint8_t kNoFeedbackSlot = 0xff;
    /**
     * Prefetcher slots are stored in 6 bits; the all-ones code
     * stands for kNoFeedbackSlot, so real slots must be below 63.
     */
    static constexpr unsigned kSlotLimit = 63;

    /** Precompute the lookup coordinates of a line (pure). */
    CacheRef
    ref(Addr line_num) const
    {
        return {setBase(line_num), keyOf(line_num), line_num};
    }

    /**
     * Demand lookup: updates LRU and clears the prefetched bit on a
     * hit (first touch is reported).
     */
    CacheLookup access(const CacheRef &ref, Cycle now);
    CacheLookup
    access(Addr line_num, Cycle now)
    {
        return access(ref(line_num), now);
    }

    /**
     * Inline fast path of access() for the dominant case: the
     * MRU-way prediction hits and the line carries no prefetch
     * provenance. Performs exactly the state updates access() would
     * (hit counter, LRU stamp, readyAt refresh) and returns true
     * with the pre-refresh readyAt; returns false with NO state
     * changed when the case is anything else — the caller then runs
     * the full access() and gets an identical outcome.
     */
    bool
    accessHitFast(const CacheRef &r, Cycle now, Cycle &ready)
    {
        const std::size_t idx =
            r.base + mruWay[setIndex(r.line)];
        if (tagv[idx] != r.key)
            return false;
        if (attr[idx] & kAttrPrefetched)
            return false;
        ++statHits;
        lru[idx] = nextStamp();
        ready = readyAt[idx];
        if (now > readyAt[idx])
            readyAt[idx] = now;
        return true;
    }

    /** Probe without disturbing replacement or prefetch state. */
    bool
    contains(const CacheRef &r) const
    {
        return findWay(r.base, r.key) >= 0;
    }
    bool contains(Addr line_num) const
    {
        return contains(ref(line_num));
    }

    /**
     * Prefetch lookup: updates LRU but does NOT clear the
     * prefetched bit (a prefetch touching a prefetched line does
     * not count as a demand use).
     */
    bool touch(const CacheRef &ref);
    bool touch(Addr line_num) { return touch(ref(line_num)); }

    /**
     * Insert a line.
     *
     * @param ref        precomputed coordinates (see ref())
     * @param now        current cycle (LRU stamp)
     * @param ready_at   cycle the data actually arrives
     * @param is_prefetch fill caused by a prefetcher
     * @param pf_slot    prefetcher slot index (< kSlotLimit, or
     *                   kNoFeedbackSlot)
     * @param pf_meta    prefetcher credit token
     * @param pf_from_dram the prefetch data came from main memory
     */
    CacheEviction fill(const CacheRef &ref, Cycle now, Cycle ready_at,
                       bool is_prefetch, std::uint8_t pf_slot = 0,
                       std::uint64_t pf_meta = 0,
                       bool pf_from_dram = false);
    CacheEviction
    fill(Addr line_num, Cycle now, Cycle ready_at, bool is_prefetch,
         std::uint8_t pf_slot = 0, std::uint64_t pf_meta = 0,
         bool pf_from_dram = false)
    {
        return fill(ref(line_num), now, ready_at, is_prefetch,
                    pf_slot, pf_meta, pf_from_dram);
    }

    /**
     * Deliver the completion cycle of a fill whose data-arrival
     * time was not yet known at fill() time (batched DRAM service:
     * the line is inserted eagerly with a provisional readyAt, the
     * real cycle is patched in when the controller queue drains —
     * see Simulator's prefetch fill batching). Addressed by the
     * coordinates of the fill (set base + CacheEviction::filledWay
     * + packed key), so the patch is one tag compare and a store —
     * no set scan. Touches nothing but the line's readyAt: no LRU,
     * MRU-hint, or statistics change. A line evicted since the
     * fill fails the tag check and is skipped silently — its
     * readyAt would have died with the eviction under scalar
     * service too.
     */
    void
    patchReadyAt(std::size_t set_base, unsigned way,
                 std::uint64_t key, Cycle ready_at)
    {
        const std::size_t idx = set_base + way;
        if (tagv[idx] == key)
            readyAt[idx] = ready_at;
    }

    /** Invalidate a single line if present. */
    void invalidate(Addr line_num);

    /** Drop all contents. */
    void reset();

    /**
     * Snapshot contract: geometry guard (sets, ways) followed by
     * the full array state — tags, LRU stamps, MRU hints, per-line
     * prefetch attribution and readyAt — plus the stat counters.
     * The byte format predates the compact layout: the clock and
     * stamps are written as u64 and the attribute byte as two
     * booleans plus the slot byte. A restored clock at or above
     * 2^32 is renormalized (see rankStamps); a stamp above
     * the clock or an unrepresentable slot throws SnapshotError.
     */
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);

    const CacheParams &params() const { return cfg; }
    unsigned numSets() const { return sets; }

    /** Host bytes held by the tag/metadata arrays (capacity). */
    std::size_t hostBytes() const;

    // Cumulative statistics (never reset by epochs).
    std::uint64_t statHits = 0;
    std::uint64_t statMisses = 0;
    std::uint64_t statPrefetchFills = 0;
    std::uint64_t statUnusedPrefetchEvictions = 0;

  private:
    /** #attr bits: the line was filled by a prefetch and has not
     *  been demand-touched since; that prefetch came from DRAM;
     *  the low six bits hold the encoded prefetcher slot. */
    static constexpr std::uint8_t kAttrPrefetched = 0x80;
    static constexpr std::uint8_t kAttrFromDram = 0x40;
    static constexpr std::uint8_t kAttrSlotMask = 0x3f;

    static std::uint8_t
    encodeAttr(bool prefetched, bool from_dram, std::uint8_t slot)
    {
        return static_cast<std::uint8_t>(
            (prefetched ? kAttrPrefetched : 0) |
            (from_dram ? kAttrFromDram : 0) | (slot & kAttrSlotMask));
    }
    static std::uint8_t
    slotOf(std::uint8_t a)
    {
        const std::uint8_t s = a & kAttrSlotMask;
        return s == kAttrSlotMask ? kNoFeedbackSlot : s;
    }

    /**
     * The next LRU stamp. Stamps are u32; when the clock would
     * wrap, every set's stamps are first renormalized to their
     * per-set rank, which leaves every victim choice unchanged.
     */
    std::uint32_t
    nextStamp()
    {
        if (lruClock == UINT32_MAX) [[unlikely]]
            rankStamps(lru.data());
        return ++lruClock;
    }

    /**
     * Replace each set's stamps by their dense rank within the set
     * (read from @p src, sets * ways row-major, which may be #lru
     * itself; written to #lru) and restart the clock above every
     * rank. The victim scan only ever compares stamps of one set,
     * so an order-preserving per-set relabelling is exact.
     */
    template <typename Stamp>
    void rankStamps(const Stamp *src);

    unsigned setIndex(Addr line_num) const
    {
        return static_cast<unsigned>(line_num & (sets - 1));
    }
    Addr tagOf(Addr line_num) const { return line_num >> setBits; }
    /** Packed (tag << 1) | valid key a resident line matches. */
    std::uint64_t keyOf(Addr line_num) const
    {
        return (tagOf(line_num) << 1) | 1u;
    }

    /** Way holding @p line_num within its set, or -1. */
    int findWay(std::size_t set_base, std::uint64_t key) const
    {
        const std::uint64_t *tags = &tagv[set_base];
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (tags[w] == key)
                return static_cast<int>(w);
        }
        return -1;
    }

    std::size_t setBase(Addr line_num) const
    {
        return static_cast<std::size_t>(setIndex(line_num)) *
               cfg.ways;
    }

    CacheParams cfg;
    unsigned sets;
    unsigned setBits;
    std::uint32_t lruClock = 0;
    /**
     * Hot lookup keys, sets * ways row-major by set: packed
     * (tag << 1) | valid, 0 when invalid. This is the only array a
     * miss has to scan.
     */
    std::vector<std::uint64_t> tagv;
    /** LRU stamps, sets * ways row-major: the only array the
     *  victim scan of a fill has to read. */
    std::vector<std::uint32_t> lru;
    /**
     * Per-set most-recently-hit way — a way-prediction hint for the
     * demand lookup. Purely an optimization: the probe verifies the
     * full key, so a stale hint only costs the scan it would have
     * done anyway (results are unchanged). Demand streams re-touch
     * the same line often enough that the one-compare fast path
     * wins on every hit-heavy workload.
     */
    std::vector<std::uint8_t> mruWay;
    /** Per-line attribute bytes (kAttr* bits), sets * ways. */
    std::vector<std::uint8_t> attr;
    /** Cycle each line's data arrives, sets * ways. */
    std::vector<Cycle> readyAt;
    /** Prefetcher credit token of each line's fill, sets * ways. */
    std::vector<std::uint64_t> pfMeta;
};

/**
 * Precomputed lookup coordinates of one line in a banked LLC: the
 * bank-local CacheRef plus the owning bank. The embedded ref's
 * `line` field is the bank-local line number; callers that need the
 * global line keep it themselves (they computed it).
 */
struct BankedRef
{
    CacheRef ref;      ///< Bank-local coordinates.
    unsigned bank = 0; ///< Owning bank index.
};

/**
 * The shared LLC as N line-interleaved banks (`bank = line mod N`,
 * bank-local line = `line / N`), each a full Cache of 1/N the total
 * capacity. With a power-of-two bank count the interleave is a pure
 * re-labeling of the monolithic set index — bank bits + bank-local
 * set bits reassemble the monolithic set index and the tags
 * coincide — so lookup/fill/victim behavior is bit-identical across
 * {1, 2, 4, ...} banks (pinned by test_shard_order.cc). Non-pow2
 * counts decode through the exact reciprocal division and simply
 * define a different (still valid) geometry, provided each bank is
 * itself a power-of-two set count (e.g. 3 banks of a 3-core LLC);
 * the constructor throws std::invalid_argument otherwise.
 *
 * Bank-local evictions are translated back to global line numbers
 * here, so downstream consumers (OCP eviction feed, pollution
 * tracking) never see bank-local addresses.
 */
class BankedLlc
{
  public:
    BankedLlc(const CacheParams &total, unsigned bank_count,
              bool force_division = false);

    unsigned bankCount() const
    {
        return static_cast<unsigned>(banks.size());
    }
    Cache &bank(unsigned i) { return banks[i]; }
    const Cache &bank(unsigned i) const { return banks[i]; }

    unsigned bankOf(Addr line_num) const
    {
        return static_cast<unsigned>(decode.shardOf(line_num));
    }

    /** Precompute the (bank, bank-local) coordinates of a line. */
    BankedRef
    ref(Addr line_num) const
    {
        const unsigned b = bankOf(line_num);
        return {banks[b].ref(decode.localLine(line_num)), b};
    }

    CacheLookup
    access(const BankedRef &r, Cycle now)
    {
        return banks[r.bank].access(r.ref, now);
    }

    bool
    accessHitFast(const BankedRef &r, Cycle now, Cycle &ready)
    {
        return banks[r.bank].accessHitFast(r.ref, now, ready);
    }

    bool touch(const BankedRef &r)
    {
        return banks[r.bank].touch(r.ref);
    }
    bool touch(Addr line_num) { return touch(ref(line_num)); }

    /** Insert a line; eviction addresses come back global. */
    CacheEviction
    fill(const BankedRef &r, Cycle now, Cycle ready_at,
         bool is_prefetch, std::uint8_t pf_slot = 0,
         std::uint64_t pf_meta = 0, bool pf_from_dram = false)
    {
        CacheEviction ev =
            banks[r.bank].fill(r.ref, now, ready_at, is_prefetch,
                               pf_slot, pf_meta, pf_from_dram);
        if (ev.evictedValid)
            ev.evictedLine =
                decode.globalLine(ev.evictedLine, r.bank);
        return ev;
    }

    void
    patchReadyAt(unsigned bank_idx, std::size_t set_base,
                 unsigned way, std::uint64_t key, Cycle ready_at)
    {
        banks[bank_idx].patchReadyAt(set_base, way, key, ready_at);
    }

    void reset();

    /** Total-LLC parameters (capacity, latency) as configured. */
    const CacheParams &params() const { return total; }

    // Aggregated statistics (sum over banks; each global line maps
    // to exactly one bank, so the sums equal the monolithic
    // counters).
    std::uint64_t statHits() const;
    std::uint64_t statMisses() const;
    std::uint64_t statPrefetchFills() const;
    std::uint64_t statUnusedPrefetchEvictions() const;

  private:
    CacheParams total;
    ShardDecode decode;
    std::vector<Cache> banks;
};

} // namespace athena

#endif // ATHENA_MEM_CACHE_HH
