/**
 * @file
 * IPCP: Instruction-Pointer Classifier based spatial Prefetching
 * (Pakalapati & Panda, ISCA 2020). L1D prefetcher.
 *
 * Each load IP is classified into one of three classes and the
 * class's specialized engine generates prefetches:
 *  - CS   (constant stride): per-IP stride with confidence,
 *  - CPLX (complex): signature of recent strides -> predicted next
 *         stride via the CSPT,
 *  - GS   (global stream): sequential-access density detector that
 *         streams ahead of the demand front.
 *
 * This reproduction keeps the published table geometry (64-entry IP
 * table, 128-entry CSPT) at a ~0.7 KB budget (Table 8).
 */

#ifndef ATHENA_PREFETCH_IPCP_HH
#define ATHENA_PREFETCH_IPCP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "prefetch/prefetcher.hh"

namespace athena
{

class IpcpPrefetcher final : public Prefetcher
{
  public:
    IpcpPrefetcher() : Prefetcher(4, PrefetcherKind::kIpcp) { reset(); }

    const char *name() const override { return "ipcp"; }
    CacheLevel level() const override { return CacheLevel::kL1D; }

    void observeImpl(const PrefetchTrigger &trigger,
                 CandidateVec &out) override;

    void reset() override;

    void saveState(SnapshotWriter &w) const override;
    void restoreState(SnapshotReader &r) override;

    std::size_t
    storageBits() const override
    {
        // IP table: 64 x (tag 9 + last_off 6 + stride 7 + conf 2 +
        // sig 12 + class 2) = 64 x 38; CSPT: 128 x (stride 7 +
        // conf 2); stream detector ~64 bits.
        return 64 * 38 + 128 * 9 + 64;
    }

  private:
    static constexpr unsigned kIpEntries = 64;
    static constexpr unsigned kCsptEntries = 128;
    static constexpr unsigned kSigBits = 12;

    enum class IpClass : std::uint8_t { kNone, kCs, kCplx, kGs };

    struct IpEntry
    {
        std::uint16_t tag = 0;
        bool valid = false;
        Addr lastPage = 0;
        unsigned lastOffset = 0; ///< Line offset within page.
        std::int32_t stride = 0;
        SatCounter<2> csConf{0};
        std::uint16_t signature = 0;
        IpClass cls = IpClass::kNone;
    };

    struct CsptEntry
    {
        std::int32_t stride = 0;
        SatCounter<2> conf{0};
    };

    static std::uint16_t
    updateSignature(std::uint16_t sig, std::int32_t stride)
    {
        return static_cast<std::uint16_t>(
            ((sig << 3) ^ static_cast<std::uint16_t>(stride & 0x3f)) &
            ((1u << kSigBits) - 1));
    }

    std::array<IpEntry, kIpEntries> ipTable;
    std::array<CsptEntry, kCsptEntries> cspt;

    /** Global stream detector state. */
    Addr gsLastLine = 0;
    int gsRun = 0;       ///< Consecutive +1 line accesses.
    int gsDirection = 1;
};

} // namespace athena

#endif // ATHENA_PREFETCH_IPCP_HH
