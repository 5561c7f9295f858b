/**
 * @file
 * Pythia implementation.
 */

#include "prefetch/pythia.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

bool
pythiaTraceEnabled()
{
    static const bool enabled = [] {
        const char *v = std::getenv("ATHENA_PYTHIA_TRACE");
        return v && *v && *v != '0';
    }();
    return enabled;
}

} // namespace

PythiaPrefetcher::PythiaPrefetcher(std::uint64_t seed)
    : Prefetcher(4, PrefetcherKind::kPythia), rng(seed)
{
    reset();
}

double
PythiaPrefetcher::q(std::uint64_t f1, std::uint64_t f2,
                    unsigned a) const
{
    return plane1[f1 % kRows][a] + plane2[f2 % kRows][a];
}

double
PythiaPrefetcher::qValue(std::uint64_t f1, std::uint64_t f2,
                         unsigned action) const
{
    return q(f1, f2, action);
}

void
PythiaPrefetcher::update(const EqEntry &entry, std::uint64_t nf1,
                         std::uint64_t nf2, unsigned next_action)
{
    double q_sa = q(entry.f1, entry.f2, entry.action);
    double q_next = q(nf1, nf2, next_action);
    double delta = entry.reward + kGamma * q_next - q_sa;
    // Distribute the TD error across the two planes.
    plane1[entry.f1 % kRows][entry.action] += kAlpha * delta / 2.0;
    plane2[entry.f2 % kRows][entry.action] += kAlpha * delta / 2.0;
}

void
PythiaPrefetcher::drainOldest()
{
    if (eqCount == 0)
        return;
    EqEntry oldest = eqAt(0);
    eqHead = (eqHead + 1) & (kEqCapacity - 1);
    --eqCount;
    ++eqBase;
    // Untested decisions (gated / filtered / resident) carry no
    // learning signal — repeatedly grading them would erase the
    // learned policy while the prefetcher is gated.
    if (oldest.dropped)
        return;
    if (!oldest.rewarded) {
        // Issued but not demanded within the EQ window (~8 epochs):
        // grade as inaccurate, as the MICRO'21 design does.
        oldest.reward = highBandwidth ? kRewardInaccurateHigh
                                      : kRewardInaccurateLow;
    }
    if (eqCount != 0) {
        const EqEntry &next = eqAt(0);
        update(oldest, next.f1, next.f2, next.action);
    } else {
        update(oldest, oldest.f1, oldest.f2, oldest.action);
    }
}

std::uint64_t
PythiaPrefetcher::deltaSeqHash(std::uint32_t hist_key)
{
    // Bytes unpack oldest-first (high to low), matching the fold
    // order over the oldest-first deltaHistory array; the int8
    // cast recovers each clamped delta exactly (|delta| <= 64).
    std::uint64_t seq = 0;
    for (int shift = 24; shift >= 0; shift -= 8) {
        auto d = static_cast<std::int8_t>((hist_key >> shift) &
                                          0xffu);
        seq = hashCombine(seq,
                          static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(d)));
    }
    return seq;
}

void
PythiaPrefetcher::observeImpl(const PrefetchTrigger &trigger,
                          CandidateVec &out)
{
    Addr line = lineNumber(trigger.addr);
    auto delta = static_cast<int>(
        std::clamp<std::int64_t>(static_cast<std::int64_t>(line) -
                                     static_cast<std::int64_t>(lastLine),
                                 -64, 64));
    lastLine = line;

    // Feature 1: PC xor last delta. Feature 2: delta sequence —
    // a pure fold over the packed history key (its bytes mirror the
    // oldest-first deltaHistory array).
    std::uint64_t f1 =
        hashCombine(trigger.pc, static_cast<std::uint64_t>(
                                    static_cast<std::int64_t>(delta)));
    std::uint64_t f2 = deltaSeqHash(histKey);
    std::rotate(deltaHistory.begin(), deltaHistory.begin() + 1,
                deltaHistory.end());
    deltaHistory.back() = delta;
    histKey = (histKey << 8) |
              (static_cast<std::uint32_t>(delta) & 0xffu);

    // Epsilon-greedy action selection (precomputed integer
    // threshold: bit-identical outcomes to chance(kEpsilon)). The
    // two plane rows are resolved once for the whole argmax scan.
    unsigned action = 0;
    if (rng.chanceT(epsilonThreshold)) {
        action = static_cast<unsigned>(rng.below(kActions));
    } else {
        const auto &row1 = plane1[f1 % kRows];
        const auto &row2 = plane2[f2 % kRows];
        double best = row1[0] + row2[0];
        for (unsigned a = 1; a < kActions; ++a) {
            double v = row1[a] + row2[a];
            if (v > best) {
                best = v;
                action = a;
            }
        }
    }

    if (pythiaTraceEnabled()) {
        static std::uint64_t observes = 0;
        static std::array<std::uint64_t, kActions> chosen{};
        ++chosen[action];
        if (++observes % 512 == 0) {
            std::fprintf(stderr, "pythia: obs=%llu delta=%d act=%u "
                                 "q0=%.2f q1=%.2f qa=%.2f top=[",
                         static_cast<unsigned long long>(observes),
                         delta, action, q(f1, f2, 0), q(f1, f2, 1),
                         q(f1, f2, action));
            for (unsigned a = 0; a < kActions; ++a) {
                if (chosen[a])
                    std::fprintf(stderr, "%d:%llu ", kOffsets[a],
                                 static_cast<unsigned long long>(
                                     chosen[a]));
            }
            std::fprintf(stderr, "]\n");
        }
    }

    // Push the decision into the EQ; retire the oldest if full.
    if (eqCount >= kEqCapacity)
        drainOldest();
    EqEntry &slot = eqAt(eqCount);
    slot = {f1, f2, action, false, false, 0.0};
    ++eqCount;
    std::uint64_t meta = eqBase + eqCount - 1;

    int offset = kOffsets[action];
    if (offset == 0) {
        // "No prefetch" receives its (bandwidth-dependent) reward
        // immediately.
        slot.rewarded = true;
        slot.reward = highBandwidth ? kRewardNoPrefetchHigh
                                    : kRewardNoPrefetchLow;
        return;
    }

    // Chain the selected offset up to the current degree — the
    // aggressiveness knob Athena drives via Algorithm 1.
    std::int64_t t = static_cast<std::int64_t>(line);
    for (unsigned d = 1; d <= degree(); ++d) {
        t += offset;
        if (t > 0)
            out.push_back({static_cast<Addr>(t), meta});
    }
}

void
PythiaPrefetcher::onPrefetchUsed(std::uint64_t meta, bool timely)
{
    if (meta < eqBase)
        return;
    std::uint64_t idx = meta - eqBase;
    if (idx >= eqCount)
        return;
    EqEntry &e = eqAt(static_cast<unsigned>(idx));
    if (!e.rewarded) {
        e.rewarded = true;
        e.reward =
            timely ? kRewardAccurateTimely : kRewardAccurateLate;
    }
}

void
PythiaPrefetcher::onPrefetchUseless(std::uint64_t meta)
{
    if (meta < eqBase)
        return;
    std::uint64_t idx = meta - eqBase;
    if (idx >= eqCount)
        return;
    EqEntry &e = eqAt(static_cast<unsigned>(idx));
    if (!e.rewarded) {
        e.rewarded = true;
        e.reward = highBandwidth ? kRewardInaccurateHigh
                                 : kRewardInaccurateLow;
    }
}

void
PythiaPrefetcher::onPrefetchDropped(std::uint64_t meta)
{
    if (meta < eqBase)
        return;
    std::uint64_t idx = meta - eqBase;
    if (idx >= eqCount)
        return;
    EqEntry &e = eqAt(static_cast<unsigned>(idx));
    if (!e.rewarded) {
        // Never issued: the prediction was not tested against the
        // demand stream, so it carries no learning signal.
        e.rewarded = true;
        e.dropped = true;
    }
}

void
PythiaPrefetcher::onEpochEnd(double bandwidth_usage)
{
    highBandwidth = bandwidth_usage > kHighBandwidthThreshold;
}

void
PythiaPrefetcher::reset()
{
    for (auto &row : plane1)
        row.fill(0.0);
    for (auto &row : plane2)
        row.fill(0.0);
    eqHead = 0;
    eqCount = 0;
    eqBase = 0;
    lastLine = 0;
    deltaHistory.fill(0);
    highBandwidth = false;
    histKey = 0;
}

void
PythiaPrefetcher::saveState(SnapshotWriter &w) const
{
    Prefetcher::saveState(w);
    for (const auto &row : plane1) {
        for (double v : row)
            w.f64(v);
    }
    for (const auto &row : plane2) {
        for (double v : row)
            w.f64(v);
    }
    for (const EqEntry &e : eqBuf) {
        w.u64(e.f1);
        w.u64(e.f2);
        w.u32(e.action);
        w.boolean(e.rewarded);
        w.boolean(e.dropped);
        w.f64(e.reward);
    }
    w.u32(eqHead);
    w.u32(eqCount);
    w.u64(eqBase);
    w.u64(lastLine);
    for (int d : deltaHistory)
        w.i32(d);
    w.boolean(highBandwidth);
    w.u64(rng.rawState());
    w.u32(histKey);
}

void
PythiaPrefetcher::restoreState(SnapshotReader &r)
{
    Prefetcher::restoreState(r);
    for (auto &row : plane1) {
        for (double &v : row)
            v = r.f64();
    }
    for (auto &row : plane2) {
        for (double &v : row)
            v = r.f64();
    }
    for (EqEntry &e : eqBuf) {
        e.f1 = r.u64();
        e.f2 = r.u64();
        e.action = r.u32();
        e.rewarded = r.boolean();
        e.dropped = r.boolean();
        e.reward = r.f64();
    }
    eqHead = r.u32();
    eqCount = r.u32();
    eqBase = r.u64();
    lastLine = r.u64();
    for (int &d : deltaHistory)
        d = r.i32();
    highBandwidth = r.boolean();
    rng.setRawState(r.u64());
    histKey = r.u32();
}

} // namespace athena
