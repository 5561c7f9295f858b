/**
 * @file
 * POPET: perceptron-based off-chip predictor (Hermes; Bera et al.,
 * MICRO 2022).
 *
 * A hashed-perceptron over five program features. Each feature
 * indexes a dedicated table of signed weights; the prediction is
 * positive (off-chip) when the summed weights reach the activation
 * threshold. Training follows the standard perceptron rule: update
 * on misprediction or when the magnitude of the sum is below the
 * training threshold. This matches the configuration evaluated in
 * the Athena paper (4 KB, Table 8).
 */

#ifndef ATHENA_OCP_POPET_HH
#define ATHENA_OCP_POPET_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/sat_counter.hh"
#include "ocp/ocp.hh"

namespace athena
{

class PopetPredictor final : public OffChipPredictor
{
  public:
    PopetPredictor() : OffChipPredictor(OcpKind::kPopet) { reset(); }

    const char *name() const override { return "popet"; }

    bool predict(std::uint64_t pc, Addr addr) override;
    void train(std::uint64_t pc, Addr addr, bool went_offchip) override;

    void reset() override;

    /** Snapshot contract: weight tables + PC-history hash. The
     *  pc/page/one-deep memos are pure caches and are cleared on
     *  restore (every train is paired with a same-access predict,
     *  so the fallback path is bit-identical). */
    void saveState(SnapshotWriter &w) const override;
    void restoreState(SnapshotReader &r) override;

    std::size_t
    storageBits() const override
    {
        // 5 tables x 1024 entries x 6-bit weights + last-PCs reg.
        return kFeatures * kTableSize * 6 + 64;
    }

    /** Activation threshold tau_act (exposed for tests). */
    static constexpr int kActivationThreshold = 2;
    /** Training threshold tau_train. */
    static constexpr int kTrainingThreshold = 14;

  private:
    static constexpr unsigned kFeatures = 5;
    static constexpr unsigned kTableSize = 1024;

    /** Compute the five feature table indices for (pc, addr). */
    std::array<std::uint16_t, kFeatures>
    featureIndices(std::uint64_t pc, Addr addr) const;

    /**
     * Memos of the (pure) pc- and page-derived hash work inside
     * featureIndices. Demand streams rotate through a handful of
     * load PCs and dwell on a page for many accesses, so both hit
     * nearly always; results are bit-identical to recomputing.
     * mutable: featureIndices is logically const.
     */
    struct PcMemoEntry
    {
        std::uint64_t pc = 0;
        bool valid = false;
        std::uint16_t pcIdx = 0;     ///< mix64(pc) % kTableSize.
        std::uint64_t pcTerm = 0;    ///< hashCombine's pc-only term.
    };
    static constexpr unsigned kPcMemoSize = 16; // power of two
    mutable std::array<PcMemoEntry, kPcMemoSize> pcMemo{};
    mutable Addr memoPage = ~0ull;
    mutable std::uint16_t memoPageIdx = 0;

    int sum(const std::array<std::uint16_t, kFeatures> &idx) const;

    std::array<std::array<SignedSatCounter<6>, kTableSize>, kFeatures>
        weights;

    /** Rolling hash of the last four load PCs (feature 5). */
    std::uint64_t lastPcsHash = 0;

    /**
     * One-deep feature-index memo: every demand load runs
     * predict(pc, addr) then train(pc, addr, outcome) on the same
     * access, so predict pre-computes the indices train will need
     * (with the PC-history feature already advanced past this
     * load), saving half of the feature hashing on the access path.
     */
    std::uint64_t memoPc = 0;
    Addr memoAddr = 0;
    bool memoValid = false;
    std::array<std::uint16_t, kFeatures> memoIdx{};
    /**
     * Weight sum over the first four (pc, addr)-pure features,
     * captured at predict() time. No weight changes between a
     * load's predict and its train, so train only re-reads the
     * history feature's weight.
     */
    int memoPartialSum = 0;
};

} // namespace athena

#endif // ATHENA_OCP_POPET_HH
