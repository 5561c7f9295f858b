/**
 * @file
 * Cache model implementation.
 *
 * Layout note: the lookup keys (tag + valid) are split out of the
 * per-line metadata into the packed `tagv` array. Lookups are the
 * hottest operation in the whole simulator — every load scans up to
 * `ways` entries per level — and the split keeps that scan inside
 * one or two cache lines of host memory. The remaining per-line
 * fields are separate arrays too (see Cache), so each operation
 * touches only the fields it reads.
 */

#include "mem/cache.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "snapshot/snapshot.hh"

namespace athena
{

Cache::Cache(const CacheParams &params) : cfg(params)
{
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(kLineBytes) * cfg.ways;
    const std::uint64_t n_sets = set_bytes ? cfg.sizeBytes / set_bytes : 0;
    if (cfg.ways > 255 || n_sets == 0 ||
        n_sets * set_bytes != cfg.sizeBytes ||
        !std::has_single_bit(n_sets) || n_sets > (1ull << 31)) {
        throw std::invalid_argument(
            "cache '" + cfg.name + "': " +
            std::to_string(cfg.sizeBytes) + " bytes in " +
            std::to_string(cfg.ways) +
            "-way sets of 64-byte lines is not a power-of-two set "
            "count (ways must be 1..255)");
    }
    setBits = static_cast<unsigned>(std::bit_width(n_sets) - 1);
    sets = static_cast<unsigned>(n_sets);
    const std::size_t n = static_cast<std::size_t>(sets) * cfg.ways;
    tagv.resize(n, 0);
    lru.resize(n, 0);
    mruWay.resize(sets, 0);
    attr.resize(n, 0);
    readyAt.resize(n, 0);
    pfMeta.resize(n, 0);
}

std::size_t
Cache::hostBytes() const
{
    return tagv.capacity() * sizeof(tagv[0]) +
           lru.capacity() * sizeof(lru[0]) +
           mruWay.capacity() * sizeof(mruWay[0]) +
           attr.capacity() * sizeof(attr[0]) +
           readyAt.capacity() * sizeof(readyAt[0]) +
           pfMeta.capacity() * sizeof(pfMeta[0]);
}

template <typename Stamp>
void
Cache::rankStamps(const Stamp *src)
{
    std::array<Stamp, 255> sorted;
    for (std::size_t base = 0; base < lru.size(); base += cfg.ways) {
        const Stamp *in = src + base;
        std::copy(in, in + cfg.ways, sorted.begin());
        auto last = sorted.begin() + cfg.ways;
        std::sort(sorted.begin(), last);
        last = std::unique(sorted.begin(), last);
        // in[w] is read before lru[base + w] is written, so src may
        // be #lru itself.
        for (unsigned w = 0; w < cfg.ways; ++w) {
            lru[base + w] = static_cast<std::uint32_t>(
                std::lower_bound(sorted.begin(), last, in[w]) -
                sorted.begin());
        }
    }
    // Ranks are < ways, so every later stamp sorts above them.
    lruClock = cfg.ways;
}

CacheLookup
Cache::access(const CacheRef &r, Cycle now)
{
    CacheLookup res;
    const std::size_t base = r.base;
    const unsigned set = setIndex(r.line);
    // Way prediction: probe the set's most-recently-hit way before
    // scanning. The key check makes this a pure shortcut.
    int w = mruWay[set];
    if (tagv[base + static_cast<std::size_t>(w)] != r.key) {
        w = findWay(base, r.key);
        if (w < 0) {
            ++statMisses;
            return res;
        }
        mruWay[set] = static_cast<std::uint8_t>(w);
    }
    ++statHits;
    const std::size_t idx = base + static_cast<std::size_t>(w);
    res.hit = true;
    res.readyAt = readyAt[idx];
    if (const std::uint8_t a = attr[idx]; a & kAttrPrefetched) {
        res.firstPrefetchTouch = true;
        res.pfMeta = pfMeta[idx];
        res.pfSlot = slotOf(a);
        res.pfFromDram = (a & kAttrFromDram) != 0;
        attr[idx] = a & ~kAttrPrefetched;
    }
    lru[idx] = nextStamp();
    if (now > readyAt[idx])
        readyAt[idx] = now;
    return res;
}

bool
Cache::touch(const CacheRef &r)
{
    const std::size_t base = r.base;
    int w = findWay(base, r.key);
    if (w < 0)
        return false;
    lru[base + static_cast<std::size_t>(w)] = nextStamp();
    return true;
}

CacheEviction
Cache::fill(const CacheRef &r, Cycle now, Cycle ready_at,
            bool is_prefetch, std::uint8_t pf_slot,
            std::uint64_t pf_meta, bool pf_from_dram)
{
    assert(pf_slot < kSlotLimit || pf_slot == kNoFeedbackSlot);
    CacheEviction ev;
    ev.causedByPrefetch = is_prefetch;

    const std::size_t base = r.base;
    std::uint64_t *tags = &tagv[base];
    std::uint32_t *stamps = &lru[base];

    // Single fused way-scan: resident check and victim selection
    // (first invalid way, else LRU) in one pass over the tag array.
    // Fill is the second-hottest cache operation after access, and
    // the common case is a miss-fill that used to scan twice.
    unsigned victim_w = 0;
    bool have_invalid = false;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (tags[w] == r.key) {
            // Refill of a resident line: refresh metadata only.
            stamps[w] = nextStamp();
            ev.filledWay = static_cast<std::uint8_t>(w);
            return ev;
        }
        if (have_invalid)
            continue;
        if (!(tags[w] & 1)) {
            victim_w = w;
            have_invalid = true;
        } else if (stamps[w] < stamps[victim_w]) {
            victim_w = w;
        }
    }
    const std::size_t victim = base + victim_w;

    if (tags[victim_w] & 1) {
        ev.evictedValid = true;
        ev.evictedLine =
            ((tags[victim_w] >> 1) << setBits) | setIndex(r.line);
        if (const std::uint8_t a = attr[victim]; a & kAttrPrefetched) {
            ev.evictedUnusedPrefetch = true;
            ev.evictedPfMeta = pfMeta[victim];
            ev.evictedPfSlot = slotOf(a);
            ev.evictedPfFromDram = (a & kAttrFromDram) != 0;
            ++statUnusedPrefetchEvictions;
        }
    }

    tags[victim_w] = r.key;
    attr[victim] = encodeAttr(is_prefetch, pf_from_dram, pf_slot);
    pfMeta[victim] = pf_meta;
    readyAt[victim] = ready_at;
    stamps[victim_w] = nextStamp();
    mruWay[setIndex(r.line)] = static_cast<std::uint8_t>(victim_w);
    ev.filledWay = static_cast<std::uint8_t>(victim_w);
    if (is_prefetch)
        ++statPrefetchFills;
    (void)now;
    return ev;
}

void
Cache::invalidate(Addr line_num)
{
    const std::size_t base = setBase(line_num);
    if (int w = findWay(base, keyOf(line_num)); w >= 0)
        tagv[base + static_cast<std::size_t>(w)] = 0;
}

void
Cache::reset()
{
    std::fill(tagv.begin(), tagv.end(), 0);
    std::fill(lru.begin(), lru.end(), 0);
    std::fill(mruWay.begin(), mruWay.end(), 0);
    std::fill(attr.begin(), attr.end(), 0);
    std::fill(readyAt.begin(), readyAt.end(), 0);
    std::fill(pfMeta.begin(), pfMeta.end(), 0);
    lruClock = 0;
    statHits = statMisses = 0;
    statPrefetchFills = statUnusedPrefetchEvictions = 0;
}

void
Cache::saveState(SnapshotWriter &w) const
{
    w.u32(sets);
    w.u32(cfg.ways);
    w.u64(lruClock);
    w.u64(statHits);
    w.u64(statMisses);
    w.u64(statPrefetchFills);
    w.u64(statUnusedPrefetchEvictions);
    for (std::uint64_t t : tagv)
        w.u64(t);
    for (std::uint32_t s : lru)
        w.u64(s);
    w.bytes(mruWay.data(), mruWay.size());
    for (std::size_t i = 0; i < attr.size(); ++i) {
        w.boolean(attr[i] & kAttrPrefetched);
        w.boolean(attr[i] & kAttrFromDram);
        w.u8(slotOf(attr[i]));
        w.u64(pfMeta[i]);
        w.u64(readyAt[i]);
    }
}

void
Cache::restoreState(SnapshotReader &r)
{
    r.expectU32(sets, "cache set count");
    r.expectU32(cfg.ways, "cache way count");
    const std::uint64_t clock = r.u64();
    statHits = r.u64();
    statMisses = r.u64();
    statPrefetchFills = r.u64();
    statUnusedPrefetchEvictions = r.u64();
    for (std::uint64_t &t : tagv)
        t = r.u64();
    const auto stamp = [&] {
        const std::uint64_t s = r.u64();
        if (s > clock)
            throw SnapshotError(r.currentSection(),
                                "cache LRU stamp " + std::to_string(s) +
                                    " above the clock " +
                                    std::to_string(clock));
        return s;
    };
    if (clock <= UINT32_MAX) {
        for (std::uint32_t &s : lru)
            s = static_cast<std::uint32_t>(stamp());
        lruClock = static_cast<std::uint32_t>(clock);
    } else {
        // Written by a run whose clock outgrew u32 stamps.
        std::vector<std::uint64_t> wide(lru.size());
        for (std::uint64_t &s : wide)
            s = stamp();
        rankStamps(wide.data());
    }
    r.bytes(mruWay.data(), mruWay.size());
    for (std::uint8_t m : mruWay) {
        if (m >= cfg.ways)
            throw SnapshotError(r.currentSection(),
                                "cache MRU way " + std::to_string(m) +
                                    " out of range");
    }
    for (std::size_t i = 0; i < attr.size(); ++i) {
        const bool prefetched = r.boolean();
        const bool from_dram = r.boolean();
        const std::uint8_t slot = r.u8();
        if (slot >= kSlotLimit && slot != kNoFeedbackSlot)
            throw SnapshotError(r.currentSection(),
                                "cache prefetcher slot " +
                                    std::to_string(slot) +
                                    " out of range");
        attr[i] = encodeAttr(prefetched, from_dram, slot);
        pfMeta[i] = r.u64();
        readyAt[i] = r.u64();
    }
}

BankedLlc::BankedLlc(const CacheParams &total_params,
                     unsigned bank_count, bool force_division)
    : total(total_params), decode(bank_count ? bank_count : 1,
                                  force_division)
{
    assert(bank_count >= 1);
    CacheParams per_bank = total_params;
    per_bank.name = total_params.name + " bank";
    per_bank.sizeBytes = total_params.sizeBytes / decode.count();
    if (per_bank.sizeBytes * decode.count() != total_params.sizeBytes)
        throw std::invalid_argument(
            "cache '" + total_params.name + "': " +
            std::to_string(total_params.sizeBytes) +
            " bytes do not split evenly into " +
            std::to_string(decode.count()) + " banks");
    banks.reserve(decode.count());
    for (std::uint64_t b = 0; b < decode.count(); ++b)
        banks.emplace_back(per_bank);
}

void
BankedLlc::reset()
{
    for (Cache &b : banks)
        b.reset();
}

std::uint64_t
BankedLlc::statHits() const
{
    std::uint64_t s = 0;
    for (const Cache &b : banks)
        s += b.statHits;
    return s;
}

std::uint64_t
BankedLlc::statMisses() const
{
    std::uint64_t s = 0;
    for (const Cache &b : banks)
        s += b.statMisses;
    return s;
}

std::uint64_t
BankedLlc::statPrefetchFills() const
{
    std::uint64_t s = 0;
    for (const Cache &b : banks)
        s += b.statPrefetchFills;
    return s;
}

std::uint64_t
BankedLlc::statUnusedPrefetchEvictions() const
{
    std::uint64_t s = 0;
    for (const Cache &b : banks)
        s += b.statUnusedPrefetchEvictions;
    return s;
}

} // namespace athena
