/**
 * @file
 * SMS: Spatial Memory Streaming (Somogyi et al., ISCA 2006). L2C
 * prefetcher.
 *
 * SMS learns the footprint (bitmap of lines) each code context
 * touches within a spatial region (here: a 4 KB page), keyed by
 * (trigger PC, trigger offset). Active regions accumulate their
 * footprints in the AGT; when a region's generation ends (AGT
 * eviction), the footprint is stored in the PHT. A later trigger
 * with the same key replays the stored footprint as prefetches.
 */

#ifndef ATHENA_PREFETCH_SMS_HH
#define ATHENA_PREFETCH_SMS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace athena
{

class SmsPrefetcher final : public Prefetcher
{
  public:
    SmsPrefetcher() : Prefetcher(8, PrefetcherKind::kSms) { reset(); }

    const char *name() const override { return "sms"; }
    CacheLevel level() const override { return CacheLevel::kL2C; }

    void observeImpl(const PrefetchTrigger &trigger,
                 CandidateVec &out) override;

    void reset() override;

    void saveState(SnapshotWriter &w) const override;
    void restoreState(SnapshotReader &r) override;

    std::size_t
    storageBits() const override
    {
        // AGT 32 x (region 36 + key 16 + bitmap 64) +
        // PHT 256 x (tag 16 + bitmap 64); ~20 KB full config.
        return 32 * 116 + 256 * 80;
    }

  private:
    static constexpr unsigned kAgtEntries = 32;
    static constexpr unsigned kPhtEntries = 256;

    struct AgtEntry
    {
        Addr region = 0;
        bool valid = false;
        std::uint64_t key = 0;
        std::uint64_t bitmap = 0;
        std::uint64_t lruStamp = 0;
    };

    struct PhtEntry
    {
        std::uint16_t tag = 0;
        bool valid = false;
        std::uint64_t bitmap = 0;
    };

    /** Commit a finished generation into the PHT. */
    void commit(const AgtEntry &entry);

    static std::uint64_t
    keyOf(std::uint64_t pc, unsigned trigger_offset)
    {
        return (pc << 6) ^ trigger_offset;
    }

    std::array<AgtEntry, kAgtEntries> agt;
    std::array<PhtEntry, kPhtEntries> pht;
    std::uint64_t lruClock = 0;
};

} // namespace athena

#endif // ATHENA_PREFETCH_SMS_HH
