/**
 * @file
 * IPCP implementation.
 */

#include "prefetch/ipcp.hh"

#include <cstdint>
#include <vector>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

void
IpcpPrefetcher::observeImpl(const PrefetchTrigger &trigger,
                        CandidateVec &out)
{
    Addr line = lineNumber(trigger.addr);
    Addr page = pageNumber(trigger.addr);
    unsigned offset = pageLineOffset(trigger.addr);

    // --- global stream detector -------------------------------
    std::int64_t gdelta = static_cast<std::int64_t>(line) -
                          static_cast<std::int64_t>(gsLastLine);
    if (gdelta == gsDirection) {
        if (gsRun < 16)
            ++gsRun;
    } else if (gdelta == -gsDirection) {
        gsDirection = -gsDirection;
        gsRun = 1;
    } else if (gdelta != 0) {
        gsRun = gsRun > 0 ? gsRun - 1 : 0;
    }
    gsLastLine = line;

    // --- per-IP classification --------------------------------
    std::uint64_t idx = mix64(trigger.pc) % kIpEntries;
    auto tag = static_cast<std::uint16_t>((trigger.pc >> 6) & 0x1ff);
    IpEntry &e = ipTable[idx];

    if (!e.valid || e.tag != tag) {
        e = IpEntry{};
        e.valid = true;
        e.tag = tag;
        e.lastPage = page;
        e.lastOffset = offset;
        return;
    }

    std::int32_t stride;
    if (page == e.lastPage) {
        stride = static_cast<std::int32_t>(offset) -
                 static_cast<std::int32_t>(e.lastOffset);
    } else {
        // Cross-page access: treat as a line-granularity stride so
        // large-stride streams still classify.
        stride = static_cast<std::int32_t>(
            static_cast<std::int64_t>(line) -
            static_cast<std::int64_t>((e.lastPage << (kPageShift -
                                                      kLineShift)) +
                                      e.lastOffset));
        if (stride > 63 || stride < -63)
            stride = 0;
    }

    if (stride != 0) {
        if (stride == e.stride) {
            e.csConf.increment();
        } else {
            e.csConf.decrement();
            if (e.csConf.raw() == 0)
                e.stride = stride;
        }
        // CSPT training: did the signature predict this stride?
        CsptEntry &ce = cspt[e.signature % kCsptEntries];
        if (ce.stride == stride)
            ce.conf.increment();
        else {
            ce.conf.decrement();
            if (ce.conf.raw() == 0)
                ce.stride = stride;
        }
        e.signature = updateSignature(e.signature, stride);
    }

    e.lastPage = page;
    e.lastOffset = offset;

    // Classify: GS > CS > CPLX (paper's priority order).
    if (gsRun >= 8)
        e.cls = IpClass::kGs;
    else if (e.csConf.taken() && e.stride != 0)
        e.cls = IpClass::kCs;
    else if (cspt[e.signature % kCsptEntries].conf.taken())
        e.cls = IpClass::kCplx;
    else
        e.cls = IpClass::kNone;

    // --- prefetch generation ----------------------------------
    switch (e.cls) {
      case IpClass::kGs:
        for (unsigned d = 1; d <= degree(); ++d) {
            std::int64_t t = static_cast<std::int64_t>(line) +
                             gsDirection * static_cast<int>(d);
            if (t > 0)
                out.push_back({static_cast<Addr>(t), 0});
        }
        break;
      case IpClass::kCs:
        for (unsigned d = 1; d <= degree(); ++d) {
            std::int64_t t =
                static_cast<std::int64_t>(line) +
                static_cast<std::int64_t>(e.stride) * d;
            if (t > 0)
                out.push_back({static_cast<Addr>(t), 0});
        }
        break;
      case IpClass::kCplx:
        {
            std::uint16_t sig = e.signature;
            std::int64_t t = static_cast<std::int64_t>(line);
            for (unsigned d = 1; d <= degree(); ++d) {
                const CsptEntry &ce = cspt[sig % kCsptEntries];
                if (!ce.conf.taken() || ce.stride == 0)
                    break;
                t += ce.stride;
                if (t > 0)
                    out.push_back({static_cast<Addr>(t), 0});
                sig = updateSignature(sig, ce.stride);
            }
            break;
        }
      case IpClass::kNone:
        break;
    }
}

void
IpcpPrefetcher::reset()
{
    for (auto &e : ipTable)
        e = IpEntry{};
    for (auto &c : cspt)
        c = CsptEntry{};
    gsLastLine = 0;
    gsRun = 0;
    gsDirection = 1;
}

void
IpcpPrefetcher::saveState(SnapshotWriter &w) const
{
    Prefetcher::saveState(w);
    for (const IpEntry &e : ipTable) {
        w.u16(e.tag);
        w.boolean(e.valid);
        w.u64(e.lastPage);
        w.u32(e.lastOffset);
        w.i32(e.stride);
        w.u16(e.csConf.raw());
        w.u16(e.signature);
        w.u8(static_cast<std::uint8_t>(e.cls));
    }
    for (const CsptEntry &c : cspt) {
        w.i32(c.stride);
        w.u16(c.conf.raw());
    }
    w.u64(gsLastLine);
    w.i32(gsRun);
    w.i32(gsDirection);
}

void
IpcpPrefetcher::restoreState(SnapshotReader &r)
{
    Prefetcher::restoreState(r);
    for (IpEntry &e : ipTable) {
        e.tag = r.u16();
        e.valid = r.boolean();
        e.lastPage = r.u64();
        e.lastOffset = r.u32();
        e.stride = r.i32();
        e.csConf = SatCounter<2>(r.u16());
        e.signature = r.u16();
        e.cls = static_cast<IpClass>(r.u8());
    }
    for (CsptEntry &c : cspt) {
        c.stride = r.i32();
        c.conf = SatCounter<2>(r.u16());
    }
    gsLastLine = r.u64();
    gsRun = r.i32();
    gsDirection = r.i32();
}

} // namespace athena
