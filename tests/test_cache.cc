/**
 * @file
 * Cache model tests: hit/miss behaviour, LRU victim selection,
 * prefetch metadata (first-touch, useless-eviction, off-chip fill
 * provenance), a parameterized capacity property over several
 * geometries, the geometry and host-byte contracts, and a lockstep
 * oracle against the pre-compaction cache (u64 LRU stamps, a
 * 24-byte per-line struct) including the stamp renormalization and
 * the snapshot byte format.
 */

#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/system_config.hh"
#include "snapshot/snapshot.hh"

namespace athena
{
namespace
{

CacheParams
tinyCache(unsigned sets, unsigned ways)
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = static_cast<std::uint64_t>(sets) * ways *
                  kLineBytes;
    p.ways = ways;
    p.latency = 5;
    return p;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache(4, 2));
    EXPECT_FALSE(c.access(100, 1).hit);
    c.fill(100, 1, 1, false);
    EXPECT_TRUE(c.access(100, 2).hit);
    EXPECT_EQ(c.statMisses, 1u);
    EXPECT_EQ(c.statHits, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(tinyCache(1, 2)); // one set, two ways
    c.fill(0, 1, 1, false);
    c.fill(1, 2, 2, false);
    c.access(0, 3); // touch line 0 -> line 1 becomes LRU
    CacheEviction ev = c.fill(2, 4, 4, false);
    EXPECT_TRUE(ev.evictedValid);
    EXPECT_EQ(ev.evictedLine, 1u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(2));
    EXPECT_FALSE(c.contains(1));
}

TEST(Cache, SetIndexingSeparatesSets)
{
    Cache c(tinyCache(4, 1));
    // Lines 0..3 map to different sets; filling all evicts nothing.
    for (Addr line = 0; line < 4; ++line) {
        CacheEviction ev = c.fill(line, line, line, false);
        EXPECT_FALSE(ev.evictedValid);
    }
    for (Addr line = 0; line < 4; ++line)
        EXPECT_TRUE(c.contains(line));
}

TEST(Cache, PrefetchFirstTouchSemantics)
{
    Cache c(tinyCache(4, 2));
    c.fill(8, 1, 50, true, 1, 0xbeef, true);
    CacheLookup first = c.access(8, 60);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.firstPrefetchTouch);
    EXPECT_EQ(first.pfSlot, 1);
    EXPECT_EQ(first.pfMeta, 0xbeefu);
    EXPECT_TRUE(first.pfFromDram);
    EXPECT_EQ(first.readyAt, 50u);
    // Second demand touch is an ordinary hit.
    CacheLookup second = c.access(8, 70);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.firstPrefetchTouch);
}

TEST(Cache, PrefetchTouchDoesNotClearPrefetchBit)
{
    Cache c(tinyCache(4, 2));
    c.fill(8, 1, 1, true, 0, 7, false);
    EXPECT_TRUE(c.touch(8));
    CacheLookup res = c.access(8, 2);
    EXPECT_TRUE(res.firstPrefetchTouch) << "touch() must not count "
                                           "as a demand use";
}

TEST(Cache, UnusedPrefetchEvictionReported)
{
    Cache c(tinyCache(1, 1));
    c.fill(0, 1, 1, true, 1, 42, true);
    CacheEviction ev = c.fill(1, 2, 2, false);
    EXPECT_TRUE(ev.evictedValid);
    EXPECT_TRUE(ev.evictedUnusedPrefetch);
    EXPECT_EQ(ev.evictedPfMeta, 42u);
    EXPECT_EQ(ev.evictedPfSlot, 1);
    EXPECT_TRUE(ev.evictedPfFromDram);
    EXPECT_EQ(c.statUnusedPrefetchEvictions, 1u);
}

TEST(Cache, UsedPrefetchEvictionNotReportedUnused)
{
    Cache c(tinyCache(1, 1));
    c.fill(0, 1, 1, true, 0, 42, false);
    c.access(0, 2); // demand use clears the prefetch bit
    CacheEviction ev = c.fill(1, 3, 3, false);
    EXPECT_TRUE(ev.evictedValid);
    EXPECT_FALSE(ev.evictedUnusedPrefetch);
}

TEST(Cache, EvictionCausedByPrefetchFlag)
{
    Cache c(tinyCache(1, 1));
    c.fill(0, 1, 1, false);
    CacheEviction ev = c.fill(1, 2, 2, true, 0, 0, true);
    EXPECT_TRUE(ev.causedByPrefetch);
    EXPECT_TRUE(ev.evictedValid);
}

TEST(Cache, RefillOfResidentLineEvictsNothing)
{
    Cache c(tinyCache(1, 2));
    c.fill(0, 1, 1, false);
    CacheEviction ev = c.fill(0, 2, 2, false);
    EXPECT_FALSE(ev.evictedValid);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(tinyCache(4, 2));
    c.fill(5, 1, 1, false);
    ASSERT_TRUE(c.contains(5));
    c.invalidate(5);
    EXPECT_FALSE(c.contains(5));
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(tinyCache(4, 2));
    c.fill(3, 1, 1, false);
    c.access(3, 2);
    c.reset();
    EXPECT_FALSE(c.contains(3));
    EXPECT_EQ(c.statHits, 0u);
    EXPECT_EQ(c.statMisses, 0u);
}

TEST(Cache, LateReadyAtVisibleToDemand)
{
    Cache c(tinyCache(4, 2));
    c.fill(9, 10, 500, true, 0, 0, true); // data arrives at 500
    CacheLookup res = c.access(9, 100);   // demand at 100: late pf
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.readyAt, 500u);
}

/**
 * Deferred-completion protocol of the batched DRAM path: fill with
 * a provisional readyAt, patch the real one in by the fill's
 * coordinates (set base + CacheEviction::filledWay + key).
 */
TEST(Cache, PatchReadyAtDeliversDeferredCompletion)
{
    Cache c(tinyCache(4, 2));
    const CacheRef r = c.ref(9);
    CacheEviction ev = c.fill(r, 10, ~0ull, true, 0, 0, true);
    c.patchReadyAt(r.base, ev.filledWay, r.key, 500);
    CacheLookup res = c.access(r, 100);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.readyAt, 500u);
}

TEST(Cache, PatchReadyAtSkipsEvictedLine)
{
    Cache c(tinyCache(1, 2)); // one set, two ways
    const CacheRef a = c.ref(1);
    CacheEviction eva = c.fill(a, 1, ~0ull, true, 0, 0, true);
    c.fill(2, 2, 2, false);
    CacheEviction evc = c.fill(3, 3, 3, false); // evicts line 1
    EXPECT_TRUE(evc.evictedValid);
    EXPECT_EQ(evc.evictedLine, 1u);
    // Patching the dead fill must not corrupt whichever line now
    // owns the way (the key check fails).
    c.patchReadyAt(a.base, eva.filledWay, a.key, 500);
    EXPECT_FALSE(c.access(a, 10).hit);
    Addr survivor = evc.filledWay == eva.filledWay ? 3 : 2;
    CacheLookup res = c.access(survivor, 1);
    EXPECT_TRUE(res.hit);
    EXPECT_LT(res.readyAt, 500u);
}

TEST(Cache, FilledWayReportsResidentWay)
{
    Cache c(tinyCache(1, 4));
    for (Addr line = 0; line < 4; ++line) {
        CacheEviction ev = c.fill(line, 1, 1, false);
        // A refill of the resident line reports the same way.
        CacheEviction again = c.fill(line, 2, 2, false);
        EXPECT_EQ(again.filledWay, ev.filledWay);
        // And the reported way answers an indexed patch.
        const CacheRef r = c.ref(line);
        c.patchReadyAt(r.base, ev.filledWay, r.key, 900 + line);
        EXPECT_EQ(c.access(r, 5).readyAt, 900 + line);
    }
}

/** Property: capacity is sets x ways distinct lines per set. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(CacheGeometry, CapacityProperty)
{
    auto [sets, ways] = GetParam();
    Cache c(tinyCache(sets, ways));
    ASSERT_EQ(c.numSets(), sets);
    // Fill one set to capacity with same-set lines: no eviction
    // until ways + 1 fills.
    for (unsigned i = 0; i < ways; ++i) {
        CacheEviction ev =
            c.fill(static_cast<Addr>(i) * sets, i, i, false);
        EXPECT_FALSE(ev.evictedValid) << "premature eviction";
    }
    CacheEviction ev =
        c.fill(static_cast<Addr>(ways) * sets, ways, ways, false);
    EXPECT_TRUE(ev.evictedValid) << "capacity not enforced";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(4u, 2u),
                      std::make_pair(64u, 12u),
                      std::make_pair(512u, 20u),
                      std::make_pair(4096u, 12u)));

TEST(Cache, RejectsNonPow2SetCount)
{
    // A 12 MB LLC in 3 banks: 4 MB per 12-way bank is 5461.3 sets,
    // which used to be rounded down to 4096 (9 MB simulated).
    CacheParams bank = llcParams(4);
    bank.sizeBytes /= 3;
    try {
        Cache c(bank);
        FAIL() << "non-pow2 set count accepted";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("LLC"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(bank.sizeBytes)),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("12-way"), std::string::npos) << msg;
    }
    EXPECT_THROW(BankedLlc(llcParams(4), 3), std::invalid_argument);
    EXPECT_THROW(Cache(tinyCache(3, 4)), std::invalid_argument);
    CacheParams zero_ways = tinyCache(4, 2);
    zero_ways.ways = 0;
    EXPECT_THROW(Cache{zero_ways}, std::invalid_argument);
    CacheParams ragged = tinyCache(4, 2);
    ragged.sizeBytes += kLineBytes; // not a whole number of sets
    EXPECT_THROW(Cache{ragged}, std::invalid_argument);
    // 3 MB per bank is a valid odd-bank geometry (4096 sets).
    EXPECT_EQ(BankedLlc(llcParams(3), 3).bank(0).numSets(), 4096u);
}

TEST(Cache, HostBytesPerLineWithinBudget)
{
    for (const CacheParams &p :
         {l1dParams(), l2cParams(), llcParams(1), llcParams(4)}) {
        Cache c(p);
        const std::size_t lines =
            static_cast<std::size_t>(c.numSets()) * p.ways;
        EXPECT_LE(c.hostBytes(), 30 * lines) << p.name;
    }
}

// ------------------------------------------------- lockstep oracle

/** Deterministic 64-bit stream (splitmix64), independent of Rng. */
struct Mix64
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/**
 * The cache as it was before the compact layout, transcribed
 * operation for operation: u64 LRU stamps, a 24-byte per-line
 * struct, same snapshot writer. Exact power-of-two geometries only
 * (the only ones Cache accepts).
 */
class RefCache
{
  public:
    struct Line
    {
        bool prefetched = false;
        bool pfFromDram = false;
        std::uint8_t pfSlot = 0;
        std::uint64_t pfMeta = 0;
        Cycle readyAt = 0;
    };

    explicit RefCache(const CacheParams &p)
        : ways(p.ways),
          sets(static_cast<unsigned>(
              p.sizeBytes / (std::uint64_t{kLineBytes} * p.ways))),
          setBits(static_cast<unsigned>(std::bit_width(sets) - 1))
    {
        reset();
    }

    CacheLookup
    access(Addr line_num, Cycle now)
    {
        CacheLookup res;
        const std::size_t base = setBase(line_num);
        const unsigned set = setIndex(line_num);
        int w = mruWay[set];
        if (tagv[base + w] != keyOf(line_num)) {
            w = findWay(base, keyOf(line_num));
            if (w < 0) {
                ++statMisses;
                return res;
            }
            mruWay[set] = static_cast<std::uint8_t>(w);
        }
        ++statHits;
        Line &line = lines[base + w];
        res.hit = true;
        res.readyAt = line.readyAt;
        if (line.prefetched) {
            res.firstPrefetchTouch = true;
            res.pfMeta = line.pfMeta;
            res.pfSlot = line.pfSlot;
            res.pfFromDram = line.pfFromDram;
            line.prefetched = false;
        }
        lru[base + w] = ++lruClock;
        if (now > line.readyAt)
            line.readyAt = now;
        return res;
    }

    bool
    accessHitFast(Addr line_num, Cycle now, Cycle &ready)
    {
        const std::size_t idx =
            setBase(line_num) + mruWay[setIndex(line_num)];
        if (tagv[idx] != keyOf(line_num) || lines[idx].prefetched)
            return false;
        ++statHits;
        lru[idx] = ++lruClock;
        ready = lines[idx].readyAt;
        if (now > lines[idx].readyAt)
            lines[idx].readyAt = now;
        return true;
    }

    bool
    contains(Addr line_num) const
    {
        return findWay(setBase(line_num), keyOf(line_num)) >= 0;
    }

    bool
    touch(Addr line_num)
    {
        const std::size_t base = setBase(line_num);
        int w = findWay(base, keyOf(line_num));
        if (w < 0)
            return false;
        lru[base + w] = ++lruClock;
        return true;
    }

    CacheEviction
    fill(Addr line_num, Cycle ready_at, bool is_prefetch,
         std::uint8_t pf_slot, std::uint64_t pf_meta,
         bool pf_from_dram)
    {
        CacheEviction ev;
        ev.causedByPrefetch = is_prefetch;
        const std::size_t base = setBase(line_num);
        const std::uint64_t key = keyOf(line_num);
        unsigned victim_w = 0;
        bool have_invalid = false;
        for (unsigned w = 0; w < ways; ++w) {
            if (tagv[base + w] == key) {
                lru[base + w] = ++lruClock;
                ev.filledWay = static_cast<std::uint8_t>(w);
                return ev;
            }
            if (have_invalid)
                continue;
            if (!(tagv[base + w] & 1)) {
                victim_w = w;
                have_invalid = true;
            } else if (lru[base + w] < lru[base + victim_w]) {
                victim_w = w;
            }
        }
        Line &victim = lines[base + victim_w];
        if (tagv[base + victim_w] & 1) {
            ev.evictedValid = true;
            ev.evictedLine = ((tagv[base + victim_w] >> 1) << setBits) |
                             setIndex(line_num);
            if (victim.prefetched) {
                ev.evictedUnusedPrefetch = true;
                ev.evictedPfMeta = victim.pfMeta;
                ev.evictedPfSlot = victim.pfSlot;
                ev.evictedPfFromDram = victim.pfFromDram;
                ++statUnusedPrefetchEvictions;
            }
        }
        tagv[base + victim_w] = key;
        victim = {is_prefetch, pf_from_dram, pf_slot, pf_meta,
                  ready_at};
        lru[base + victim_w] = ++lruClock;
        mruWay[setIndex(line_num)] = static_cast<std::uint8_t>(victim_w);
        ev.filledWay = static_cast<std::uint8_t>(victim_w);
        if (is_prefetch)
            ++statPrefetchFills;
        return ev;
    }

    void
    patchReadyAt(std::size_t set_base, unsigned way, std::uint64_t key,
                 Cycle ready_at)
    {
        if (tagv[set_base + way] == key)
            lines[set_base + way].readyAt = ready_at;
    }

    void
    invalidate(Addr line_num)
    {
        const std::size_t base = setBase(line_num);
        if (int w = findWay(base, keyOf(line_num)); w >= 0)
            tagv[base + w] = 0;
    }

    void
    reset()
    {
        const std::size_t n = std::size_t{sets} * ways;
        tagv.assign(n, 0);
        lru.assign(n, 0);
        mruWay.assign(sets, 0);
        lines.assign(n, Line{});
        lruClock = 0;
        statHits = statMisses = 0;
        statPrefetchFills = statUnusedPrefetchEvictions = 0;
    }

    void
    saveState(SnapshotWriter &w) const
    {
        w.u32(sets);
        w.u32(ways);
        w.u64(lruClock);
        w.u64(statHits);
        w.u64(statMisses);
        w.u64(statPrefetchFills);
        w.u64(statUnusedPrefetchEvictions);
        for (std::uint64_t t : tagv)
            w.u64(t);
        for (std::uint64_t s : lru)
            w.u64(s);
        w.bytes(mruWay.data(), mruWay.size());
        for (const Line &line : lines) {
            w.boolean(line.prefetched);
            w.boolean(line.pfFromDram);
            w.u8(line.pfSlot);
            w.u64(line.pfMeta);
            w.u64(line.readyAt);
        }
    }

    /**
     * Move the clock to @p clock, shifting every nonzero stamp by
     * the same amount: an order-preserving relabelling, so the
     * model's future behaviour is unchanged (zero stamps belong to
     * never-filled, invalid ways and never enter a comparison).
     */
    void
    shiftClock(std::uint64_t clock)
    {
        const std::uint64_t delta = clock - lruClock;
        for (std::uint64_t &s : lru) {
            if (s)
                s += delta;
        }
        lruClock = clock;
    }

    std::vector<std::uint64_t> lru;
    std::vector<Line> lines;
    std::vector<std::uint8_t> mruWay;
    std::uint64_t lruClock = 0;
    std::uint64_t statHits = 0;
    std::uint64_t statMisses = 0;
    std::uint64_t statPrefetchFills = 0;
    std::uint64_t statUnusedPrefetchEvictions = 0;

  private:
    unsigned setIndex(Addr l) const { return l & (sets - 1); }
    std::size_t setBase(Addr l) const
    {
        return std::size_t{setIndex(l)} * ways;
    }
    std::uint64_t keyOf(Addr l) const
    {
        return ((l >> setBits) << 1) | 1u;
    }
    int
    findWay(std::size_t base, std::uint64_t key) const
    {
        for (unsigned w = 0; w < ways; ++w) {
            if (tagv[base + w] == key)
                return static_cast<int>(w);
        }
        return -1;
    }

    unsigned ways;
    unsigned sets;
    unsigned setBits;
    std::vector<std::uint64_t> tagv;
};

template <typename C>
std::vector<std::uint8_t>
snapshotBytes(const C &c)
{
    SnapshotWriter w;
    w.beginSection("cache");
    c.saveState(w);
    w.endSection();
    return w.serialize();
}

/** The clock a snapshot of @p bytes records. */
std::uint64_t
snapshotClock(const std::vector<std::uint8_t> &bytes)
{
    SnapshotReader r(bytes);
    r.openSection("cache");
    r.u32();
    r.u32();
    return r.u64();
}

template <typename C>
void
restoreInto(C &c, const std::vector<std::uint8_t> &bytes)
{
    SnapshotReader r(bytes);
    r.openSection("cache");
    c.restoreState(r);
}

#define EXPECT_LOOKUP_EQ(a, b, ctx)                                   \
    do {                                                             \
        EXPECT_EQ((a).hit, (b).hit) << ctx;                          \
        EXPECT_EQ((a).firstPrefetchTouch, (b).firstPrefetchTouch)    \
            << ctx;                                                  \
        EXPECT_EQ((a).pfMeta, (b).pfMeta) << ctx;                    \
        EXPECT_EQ((a).pfSlot, (b).pfSlot) << ctx;                    \
        EXPECT_EQ((a).readyAt, (b).readyAt) << ctx;                  \
        EXPECT_EQ((a).pfFromDram, (b).pfFromDram) << ctx;            \
    } while (0)

/**
 * Drives a Cache and a RefCache with one randomized operation
 * stream and requires every result and statistic to agree.
 */
class Lockstep
{
  public:
    Lockstep(const CacheParams &p, std::uint64_t seed)
        : cur(p), ref(p), sets(cur.numSets()), ways(p.ways),
          rng{seed}
    {}

    /** Run @p ops operations; false after the first mismatch. */
    bool
    run(unsigned ops, bool allow_reset = true)
    {
        for (unsigned i = 0; i < ops; ++i) {
            step(allow_reset);
            EXPECT_EQ(cur.statHits, ref.statHits) << ctx();
            EXPECT_EQ(cur.statMisses, ref.statMisses) << ctx();
            EXPECT_EQ(cur.statPrefetchFills, ref.statPrefetchFills)
                << ctx();
            EXPECT_EQ(cur.statUnusedPrefetchEvictions,
                      ref.statUnusedPrefetchEvictions)
                << ctx();
            if (::testing::Test::HasFailure())
                return false;
            ++opIndex;
        }
        return true;
    }

    Cache cur;
    RefCache ref;

  private:
    struct Coord
    {
        std::size_t base;
        unsigned way;
        std::uint64_t key;
    };

    std::string
    ctx() const
    {
        return "op " + std::to_string(opIndex) + " kind " +
               std::to_string(kind);
    }

    /** Mostly lines of a few hot sets (conflict and eviction),
     *  sometimes anywhere in a 40-bit line space. */
    Addr
    pickLine()
    {
        const std::uint64_t r = rng.next();
        if ((r & 7) == 0)
            return (r >> 8) & ((1ull << 40) - 1);
        const std::uint64_t set = (r >> 3) % std::min(sets, 8u);
        const std::uint64_t tag = (r >> 16) % (2 * ways + 2);
        return tag * sets + set;
    }

    void
    step(bool allow_reset)
    {
        base += rng.next() % 4;
        const Cycle now = base - rng.next() % 64;
        const Addr line = pickLine();
        const CacheRef r = cur.ref(line);
        const unsigned pick = static_cast<unsigned>(rng.next() % 1000);
        kind = pick;
        if (pick < 300) {
            CacheLookup a = cur.access(r, now);
            CacheLookup b = ref.access(line, now);
            EXPECT_LOOKUP_EQ(a, b, ctx());
        } else if (pick < 450) {
            // The demand walk's pattern: fast path, else full access.
            Cycle ra = 0, rb = 0;
            const bool fa = cur.accessHitFast(r, now, ra);
            const bool fb = ref.accessHitFast(line, now, rb);
            EXPECT_EQ(fa, fb) << ctx();
            if (fa && fb) {
                EXPECT_EQ(ra, rb) << ctx();
            } else if (!fa && !fb) {
                CacheLookup a = cur.access(r, now);
                CacheLookup b = ref.access(line, now);
                EXPECT_LOOKUP_EQ(a, b, ctx());
            }
        } else if (pick < 500) {
            CacheLookup a = cur.access(line, now);
            CacheLookup b = ref.access(line, now);
            EXPECT_LOOKUP_EQ(a, b, ctx());
        } else if (pick < 600) {
            EXPECT_EQ(cur.touch(r), ref.touch(line)) << ctx();
        } else if (pick < 850) {
            static constexpr std::uint8_t kSlots[] = {
                0, 1, 2, Cache::kSlotLimit - 1, Cache::kNoFeedbackSlot};
            const std::uint64_t x = rng.next();
            const bool pf = x & 1;
            const bool dram = x & 2;
            const std::uint8_t slot = kSlots[(x >> 2) % 5];
            const std::uint64_t meta = rng.next();
            const Cycle ready =
                (x & 0x30) == 0 ? ~0ull : now + (x >> 40) % 512;
            CacheEviction a =
                (x & 0x40) ? cur.fill(line, now, ready, pf, slot, meta,
                                      dram)
                           : cur.fill(r, now, ready, pf, slot, meta,
                                      dram);
            CacheEviction b =
                ref.fill(line, ready, pf, slot, meta, dram);
            EXPECT_EQ(a.evictedValid, b.evictedValid) << ctx();
            EXPECT_EQ(a.evictedLine, b.evictedLine) << ctx();
            EXPECT_EQ(a.evictedUnusedPrefetch, b.evictedUnusedPrefetch)
                << ctx();
            EXPECT_EQ(a.evictedPfMeta, b.evictedPfMeta) << ctx();
            EXPECT_EQ(a.evictedPfSlot, b.evictedPfSlot) << ctx();
            EXPECT_EQ(a.evictedPfFromDram, b.evictedPfFromDram)
                << ctx();
            EXPECT_EQ(a.causedByPrefetch, b.causedByPrefetch) << ctx();
            EXPECT_EQ(a.filledWay, b.filledWay) << ctx();
            coords.push_back({r.base, a.filledWay, r.key});
        } else if (pick < 920) {
            if (!coords.empty()) {
                const Coord &c = coords[rng.next() % coords.size()];
                const Cycle ready = now + rng.next() % 1024;
                cur.patchReadyAt(c.base, c.way, c.key, ready);
                ref.patchReadyAt(c.base, c.way, c.key, ready);
            }
        } else if (pick < 960) {
            cur.invalidate(line);
            ref.invalidate(line);
        } else if (pick < 999 || !allow_reset) {
            EXPECT_EQ(cur.contains(r), ref.contains(line)) << ctx();
        } else {
            cur.reset();
            ref.reset();
            coords.clear();
        }
        if (coords.size() > 4096)
            coords.erase(coords.begin(), coords.begin() + 2048);
    }

    unsigned sets;
    unsigned ways;
    Mix64 rng;
    Cycle base = 1000;
    std::vector<Coord> coords;
    unsigned opIndex = 0;
    unsigned kind = 0;
};

std::vector<CacheParams>
oracleGeometries()
{
    return {l1dParams(), l2cParams(), llcParams(1), llcParams(4),
            tinyCache(1, 8), tinyCache(16, 32)};
}

TEST(CacheOracle, LockstepWithPreCompactionModel)
{
    std::uint64_t seed = 1;
    for (const CacheParams &p : oracleGeometries()) {
        SCOPED_TRACE(p.name + " " + std::to_string(p.sizeBytes) + "B " +
                     std::to_string(p.ways) + "-way");
        Lockstep ls(p, seed++);
        ASSERT_TRUE(ls.run(60000));
        // Same state, same snapshot bytes.
        EXPECT_EQ(snapshotBytes(ls.cur), snapshotBytes(ls.ref));
    }
}

TEST(CacheOracle, RenormalizationAcrossClockSaturation)
{
    std::uint64_t seed = 100;
    for (const CacheParams &p : oracleGeometries()) {
        SCOPED_TRACE(p.name + " " + std::to_string(p.ways) + "-way");
        Lockstep ls(p, seed++);
        ASSERT_TRUE(ls.run(20000, false));
        // Restore the reference's state with its clock 8 short of
        // 2^32 into the compact cache, then keep going in lockstep
        // well past the point where the u32 clock saturates.
        ls.ref.shiftClock((1ull << 32) - 8);
        const std::vector<std::uint8_t> bytes = snapshotBytes(ls.ref);
        restoreInto(ls.cur, bytes);
        EXPECT_EQ(snapshotBytes(ls.cur), bytes);
        ASSERT_TRUE(ls.run(20000, false));
        EXPECT_GT(ls.ref.lruClock, 1ull << 32);
        // The compact clock restarted from the per-set ranks.
        EXPECT_LT(snapshotClock(snapshotBytes(ls.cur)), 1ull << 32);
    }
}

TEST(CacheOracle, RestoredWideClockIsRenormalized)
{
    for (const CacheParams &p : {l2cParams(), tinyCache(16, 32)}) {
        Lockstep ls(p, 7);
        ASSERT_TRUE(ls.run(20000, false));
        ls.ref.shiftClock(1ull << 40);
        restoreInto(ls.cur, snapshotBytes(ls.ref));
        EXPECT_EQ(snapshotClock(snapshotBytes(ls.cur)), p.ways);
        ASSERT_TRUE(ls.run(20000, false));
    }
}

TEST(CacheOracle, RestoreRejectsInconsistentSnapshots)
{
    const CacheParams p = tinyCache(4, 2);
    RefCache ref(p);
    ref.fill(1, 5, true, Cache::kNoFeedbackSlot, 9, true);
    ref.fill(2, 5, true, 1, 9, false);
    Cache c(p);
    restoreInto(c, snapshotBytes(ref)); // the no-feedback marker is fine

    RefCache stamp = ref;
    stamp.lru[3] = stamp.lruClock + 1;
    EXPECT_THROW(restoreInto(c, snapshotBytes(stamp)), SnapshotError);

    RefCache slot = ref;
    slot.lines[0].pfSlot = 64;
    EXPECT_THROW(restoreInto(c, snapshotBytes(slot)), SnapshotError);
    slot.lines[0].pfSlot = Cache::kSlotLimit;
    EXPECT_THROW(restoreInto(c, snapshotBytes(slot)), SnapshotError);

    RefCache mru = ref;
    mru.mruWay[0] = 2;
    EXPECT_THROW(restoreInto(c, snapshotBytes(mru)), SnapshotError);
}

// --------------------------------------------- snapshot byte format

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a of the snapshot after a fixed operation sequence. */
std::uint64_t
fixedSequenceDigest(const CacheParams &p)
{
    Cache c(p);
    Mix64 rng{42};
    const Addr span = static_cast<Addr>(c.numSets()) * p.ways * 2;
    for (Cycle t = 1; t <= 40000; ++t) {
        const std::uint64_t x = rng.next();
        const Addr line = (x >> 12) % span;
        switch (x % 8) {
          case 0:
          case 1:
          case 2:
            c.access(line, t);
            break;
          case 3:
            c.touch(line);
            break;
          case 4:
            c.invalidate(line);
            break;
          default: {
            static constexpr std::uint8_t kSlots[] = {
                0, 1, Cache::kNoFeedbackSlot};
            c.fill(line, t, t + (x >> 50), (x >> 3) & 1,
                   kSlots[(x >> 4) % 3], x >> 20, (x >> 5) & 1);
          }
        }
    }
    return fnv1a(snapshotBytes(c));
}

TEST(CacheSnapshot, FormatDigestsUnchanged)
{
    // Digests recorded with the pre-compaction cache (u64 stamps,
    // per-line struct): warmup-cache files written before the
    // compact layout restore into it unchanged.
    EXPECT_EQ(fixedSequenceDigest(l1dParams()), 0x2df4d3f48e01b498ull);
    EXPECT_EQ(fixedSequenceDigest(l2cParams()), 0xc8d2cf87f663d97full);
    EXPECT_EQ(fixedSequenceDigest(llcParams(4)), 0x3f54eacf142fb601ull);
}

} // namespace
} // namespace athena
