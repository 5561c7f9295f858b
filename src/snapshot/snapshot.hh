/**
 * @file
 * Versioned, mmap-loadable simulator snapshot format ("ASNP") and
 * the uniform save/restore component contract built on it.
 *
 * Layout (all little-endian fixed-width, in the spirit of the ATRC
 * binary trace format):
 *
 *   offset 0   magic "ASNP" (4 bytes)
 *          4   u16 version (kSnapshotVersion)
 *          6   u16 tag field width (kSnapshotTagBytes)
 *          8   u32 section count
 *         12   u32 reserved (0)
 *         16   section table: count x { char tag[24]; u64 offset;
 *              u64 length; u64 checksum }
 *              payload sections (offsets are absolute)
 *
 * Every component serializes into its own named section via
 * SnapshotWriter; SnapshotReader maps the file read-only (buffered
 * read fallback), verifies a per-section FNV-1a checksum when a
 * section is opened, and bounds-checks every primitive read against
 * the section extent. All failure modes — missing file, bad magic,
 * wrong version, truncated table or payload, corrupted bytes,
 * geometry mismatches — raise SnapshotError carrying the offending
 * section's tag, never UB.
 *
 * The component contract: each stateful component implements
 *   void saveState(SnapshotWriter &w) const;
 *   void restoreState(SnapshotReader &r);
 * writing/reading the *same* field sequence, geometry first (via
 * expectU32/expectU64 on restore), inside a section the owner
 * opened. Polymorphic hierarchies (Prefetcher, OffChipPredictor,
 * CoordinationPolicy, WorkloadGenerator) expose the pair as
 * virtuals with no-op defaults for stateless implementations.
 */

#ifndef ATHENA_SNAPSHOT_SNAPSHOT_HH
#define ATHENA_SNAPSHOT_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace athena
{

/** Format version: bump on any incompatible layout change.
 *  v2: sharded shared-memory plane — per-shard `llc/b<i>` /
 *  `dram/ch<j>` sections and shard geometry in `meta`.
 *  v3: the Athena agent section drops its buffered-training triple
 *  list (SARSA updates apply as each epoch closes). */
constexpr std::uint16_t kSnapshotVersion = 3;
/** Width of the section tag field (NUL-padded). */
constexpr std::size_t kSnapshotTagBytes = 24;
/** Snapshot file magic. */
constexpr char kSnapshotMagic[4] = {'A', 'S', 'N', 'P'};

/**
 * Typed snapshot failure: every load/validation error names the
 * section it occurred in (empty for file-level failures such as a
 * bad magic or a truncated header).
 */
class SnapshotError : public std::runtime_error
{
  public:
    SnapshotError(std::string section_tag, const std::string &message)
        : std::runtime_error(
              section_tag.empty()
                  ? message
                  : "section '" + section_tag + "': " + message),
          tag(std::move(section_tag))
    {}

    /** Tag of the offending section ("" = file-level error). */
    const std::string &section() const { return tag; }

  private:
    std::string tag;
};

/**
 * Accumulates named sections of little-endian fixed-width fields
 * and serializes them with the header + section table + checksums.
 */
class SnapshotWriter
{
  public:
    /** Open a new section; sections must not nest. */
    void beginSection(const std::string &tag);
    /** Close the current section (computes its checksum). */
    void endSection();

    void u8(std::uint8_t v) { payload.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    void bytes(const void *p, std::size_t n);

    void
    vecU64(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        for (std::uint64_t x : v)
            u64(x);
    }

    void
    vecU8(const std::vector<std::uint8_t> &v)
    {
        u64(v.size());
        bytes(v.data(), v.size());
    }

    /** Serialize header + table + payload into one buffer. */
    std::vector<std::uint8_t> serialize() const;

    /** Serialize to a file; throws SnapshotError on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    struct Section
    {
        std::string tag;
        std::size_t start = 0; ///< Payload-relative offset.
        std::size_t length = 0;
        std::uint64_t checksum = 0;
    };

    std::vector<std::uint8_t> payload;
    std::vector<Section> sections;
    bool inSection = false;
};

/**
 * Loads a snapshot file (mmap with buffered-read fallback) and
 * serves bounds-checked primitive reads from named sections.
 */
class SnapshotReader
{
  public:
    /** Open and validate header + table; throws SnapshotError. */
    explicit SnapshotReader(const std::string &path);
    /** In-memory snapshot (tests, benches). */
    explicit SnapshotReader(std::vector<std::uint8_t> buffer);
    ~SnapshotReader();

    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    /** True when the snapshot contains section @p tag. */
    bool hasSection(const std::string &tag) const;

    /**
     * Open section @p tag for reading (verifies its checksum;
     * throws SnapshotError when missing, truncated, or corrupt).
     * Subsequent reads consume the section front to back.
     */
    void openSection(const std::string &tag);

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64();
    bool boolean() { return u8() != 0; }
    void bytes(void *p, std::size_t n);

    std::vector<std::uint64_t> vecU64();
    std::vector<std::uint8_t> vecU8();

    /**
     * Geometry guards: read one value and require it to equal
     * @p want, throwing SnapshotError naming the current section
     * and @p what on mismatch.
     */
    void expectU32(std::uint32_t want, const char *what);
    void expectU64(std::uint64_t want, const char *what);

    /** Bytes left unread in the open section. */
    std::size_t remaining() const { return secEnd - cursor; }

    /** Tag of the currently open section (diagnostics). */
    const std::string &currentSection() const { return curTag; }

  private:
    struct Entry
    {
        std::string tag;
        std::size_t offset = 0;
        std::size_t length = 0;
        std::uint64_t checksum = 0;
        bool verified = false;
    };

    void parse();
    const Entry *find(const std::string &tag) const;
    /** Throw a truncation error for the open section. */
    [[noreturn]] void underflow(std::size_t need);

    const std::uint8_t *data = nullptr;
    std::size_t size = 0;

    /** mmap bookkeeping; base null when not mapped. */
    void *mapBase = nullptr;
    std::size_t mapLen = 0;
    /** Owned buffer (in-memory ctor or read fallback). */
    std::vector<std::uint8_t> owned;

    std::vector<Entry> entries;
    std::string curTag;
    std::size_t cursor = 0;
    std::size_t secEnd = 0;
};

/** FNV-1a 64-bit checksum used for section integrity. */
std::uint64_t snapshotChecksum(const std::uint8_t *p, std::size_t n);

} // namespace athena

#endif // ATHENA_SNAPSHOT_SNAPSHOT_HH
