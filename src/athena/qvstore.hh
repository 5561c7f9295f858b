/**
 * @file
 * QVStore: Athena's partitioned Q-value storage (section 5.1,
 * Fig. 6).
 *
 * The Q-value of a (state, action) pair is the sum of k partial
 * Q-values, one per *plane*. Each plane is a small table indexed by
 * an independent hash of the packed state vector. Similar states
 * collide in some planes (generalization); dissimilar states are
 * de-aliased by the independent hashes (resolution). SARSA updates
 * distribute the TD error equally across planes.
 *
 * Table 4 geometry: 8 planes x 64 rows x 4 actions, 8-bit entries
 * (2 KB). Entries here are s3.4 fixed point when quantized mode is
 * on (the default, matching the storage claim) or double-precision
 * when off (used by tests to bound the quantization error).
 */

#ifndef ATHENA_ATHENA_QVSTORE_HH
#define ATHENA_ATHENA_QVSTORE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace athena
{

class SnapshotReader;
class SnapshotWriter;

/** QVStore geometry and learning configuration. */
struct QVStoreParams
{
    unsigned planes = 8;
    unsigned rows = 64;
    unsigned actions = 4;
    /** Number of packed features in the state word and bits per
     *  feature (must match the StateEncoder). The second half of
     *  the planes index with each feature coarsened by one bit
     *  (tile-coding offsets), which is what makes *similar* states
     *  collide in some planes — the generalization/resolution
     *  balance section 5.1 describes. */
    unsigned stateFields = 4;
    unsigned bitsPerField = 3;
    /** Learning rate alpha (Table 3: 0.6). */
    double alpha = 0.6;
    /** Discount factor gamma (Table 3: 0.6). */
    double gamma = 0.6;
    /**
     * 8-bit s3.4 fixed-point entries with stochastic rounding
     * (matches Table 4's 8-bit storage claim) vs. double-precision
     * entries. Learning quality is nearly identical (see
     * tests/test_qvstore.cc); the float mode is the default so
     * results are bit-independent of rounding noise.
     */
    bool quantized = false;
    /** Optimistic initial Q-value (drives greedy exploration). */
    double initQ = 0.5;
    /** Seed for the stochastic-rounding RNG (quantized mode). */
    std::uint64_t roundingSeed = 0x51ed5eedull;
    /**
     * Memoize per-plane row indices across calls. Rows are a pure
     * function of (state, geometry), so the memo is exact — it only
     * trades a small lazily-allocated table for re-hashing every
     * plane on every q/argmax/update in the decision hot loop.
     * Tests disable this to cross-check bit-equivalence against the
     * per-call hashing path.
     */
    bool memoizeRows = true;
};

class QVStore
{
  public:
    explicit QVStore(const QVStoreParams &params = QVStoreParams{});

    /**
     * Largest action count served by the stack-resident column
     * kernels (argmax/qSeparation and the agent's decision loop
     * buffer one Q-column of this size). Geometries beyond it fall
     * back to the per-action scalar scans, bit-identically.
     */
    static constexpr unsigned kMaxActionColumns = 16;

    /** Summed Q-value of (state, action). */
    double q(std::uint32_t state, unsigned action) const;

    /**
     * All actions' summed Q-values for @p state in one column-wise
     * pass: the state's plane rows are resolved once and each
     * plane's contiguous action row accumulates into @p out
     * (vectorizable, like the DRAM drain kernel). out must hold
     * params().actions values; out[a] is bit-identical to
     * q(state, a) because each action's partials add in the same
     * plane order the per-action scan uses.
     */
    void qAllActions(std::uint32_t state, double *out) const;

    /** Action with the highest Q-value in @p state. */
    unsigned argmax(std::uint32_t state) const;

    /** Mean Q over all actions except @p excluded (Algorithm 1). */
    double meanOfOthers(std::uint32_t state, unsigned excluded) const;

    /**
     * Algorithm 1's confidence input in one pass:
     *   q(state, action) - meanOfOthers(state, action)
     * with the state's row indices resolved once instead of once
     * per q() term.
     */
    double qSeparation(std::uint32_t state, unsigned action) const;

    /**
     * SARSA update:
     *   Q(s,a) += alpha * (r + gamma * Q(s',a') - Q(s,a))
     * applied independently to each plane (each absorbs 1/k of the
     * scaled TD error).
     */
    void update(std::uint32_t s, unsigned a, double reward,
                std::uint32_t s_next, unsigned a_next);

    void reset();

    /**
     * Snapshot contract: geometry guard (planes/rows/actions/
     * storage mode), entry planes, and the stochastic-rounding
     * state. The row memo is a pure function of geometry and is
     * rebuilt lazily, not serialized.
     */
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);

    const QVStoreParams &params() const { return cfg; }

    /** Table 4 storage accounting: planes x rows x actions x 8 b. */
    std::size_t
    storageBits() const
    {
        return static_cast<std::size_t>(cfg.planes) * cfg.rows *
               cfg.actions * 8;
    }

  private:
    static constexpr double kFixedScale = 16.0; // s3.4
    static constexpr double kFixedMax = 127.0 / kFixedScale;
    static constexpr double kFixedMin = -128.0 / kFixedScale;

    /** Row index of @p state in plane @p p. */
    std::size_t rowOf(std::uint32_t state, unsigned p) const;

    /**
     * All planes' row indices for @p state, computed once per call
     * chain. Returns a pointer into the cross-call memo when the
     * state fits the packed state space (and memoization is on), or
     * into a per-store scratch array otherwise. The pointer is
     * invalidated by the next rowsFor() call on the scratch path —
     * callers extract everything they need before re-calling.
     */
    const std::uint32_t *rowsFor(std::uint32_t state) const;

    /** Summed Q over planes with pre-resolved row indices. */
    double qRows(const std::uint32_t *rows, unsigned action) const;

    double entry(unsigned p, std::size_t row, unsigned a) const;
    void addToEntry(unsigned p, std::size_t row, unsigned a,
                    double delta);

    QVStoreParams cfg;
    /** Quantized storage: planes x rows x actions int8 entries. */
    std::vector<std::int8_t> fixedEntries;
    /** Float storage (quantized == false). */
    std::vector<double> floatEntries;
    /** xorshift state for stochastic rounding. */
    mutable std::uint64_t roundState = 1;

    /** Packed-state count covered by the memo (0 = disabled). */
    std::uint32_t memoStates = 0;
    /** Lazily-built memo: memoStates x planes row indices. */
    mutable std::vector<std::uint32_t> memoRows;
    mutable std::vector<std::uint8_t> memoValid;
    /** Fallback row buffer for out-of-range states. */
    mutable std::vector<std::uint32_t> rowScratch;
};

} // namespace athena

#endif // ATHENA_ATHENA_QVSTORE_HH
