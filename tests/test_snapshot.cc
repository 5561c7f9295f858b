/**
 * @file
 * Snapshot format and robustness tests: ASNP header/section-table
 * validation, typed SnapshotError reporting that names the offending
 * section, geometry guards, and save -> restore -> save byte
 * identity of the full simulator state under randomized
 * configurations.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "snapshot/snapshot.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "asnp_" + name;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

WorkloadSpec
pickWorkload(const char *substr)
{
    auto workloads = evalWorkloads();
    for (const WorkloadSpec &w : workloads) {
        if (w.name.find(substr) != std::string::npos)
            return w;
    }
    return workloads.front();
}

// ---------------------------------------------------- writer/reader

TEST(SnapshotFormat, PrimitiveRoundTrip)
{
    SnapshotWriter w;
    w.beginSection("prims");
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.i32(-7);
    w.f64(3.25);
    w.boolean(true);
    w.boolean(false);
    const std::uint8_t raw[4] = {1, 2, 3, 4};
    w.bytes(raw, sizeof(raw));
    w.vecU64({5, 6, 7});
    w.endSection();

    SnapshotReader r(w.serialize());
    EXPECT_TRUE(r.hasSection("prims"));
    EXPECT_FALSE(r.hasSection("absent"));
    r.openSection("prims");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.i32(), -7);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    std::uint8_t back[4] = {};
    r.bytes(back, sizeof(back));
    EXPECT_EQ(back[0], 1);
    EXPECT_EQ(back[3], 4);
    EXPECT_EQ(r.vecU64(), (std::vector<std::uint64_t>{5, 6, 7}));
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotFormat, MultipleSectionsReadInAnyOrder)
{
    SnapshotWriter w;
    w.beginSection("a");
    w.u32(1);
    w.endSection();
    w.beginSection("b");
    w.u32(2);
    w.endSection();

    SnapshotReader r(w.serialize());
    r.openSection("b");
    EXPECT_EQ(r.u32(), 2u);
    r.openSection("a");
    EXPECT_EQ(r.u32(), 1u);
}

TEST(SnapshotFormat, FileRoundTrip)
{
    const std::string path = tmpPath("file_round_trip");
    SnapshotWriter w;
    w.beginSection("s");
    w.u64(77);
    w.endSection();
    w.writeFile(path);

    SnapshotReader r(path);
    r.openSection("s");
    EXPECT_EQ(r.u64(), 77u);
    std::remove(path.c_str());
}

// ------------------------------------------------------- robustness

TEST(SnapshotRobustness, MissingFileIsTypedError)
{
    EXPECT_THROW(SnapshotReader("/nonexistent/path/x.asnp"),
                 SnapshotError);
}

TEST(SnapshotRobustness, BadMagicIsFileLevelError)
{
    SnapshotWriter w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    auto bytes = w.serialize();
    bytes[0] = 'X';
    try {
        SnapshotReader r(std::move(bytes));
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_TRUE(e.section().empty());
    }
}

TEST(SnapshotRobustness, WrongVersionIsRejected)
{
    SnapshotWriter w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    auto bytes = w.serialize();
    bytes[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
    EXPECT_THROW(SnapshotReader r(std::move(bytes)), SnapshotError);
}

TEST(SnapshotRobustness, V2FileIsRejectedAsWrongVersion)
{
    // v2 agent sections carried a buffered-training triple list that
    // v3 no longer reads, so a v2 file must fail at the header, not
    // misparse mid-section.
    ASSERT_EQ(kSnapshotVersion, 3);
    SnapshotWriter w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    auto bytes = w.serialize();
    bytes[4] = 2;
    bytes[5] = 0;
    try {
        SnapshotReader r(std::move(bytes));
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "");
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported snapshot version 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotRobustness, TruncatedPayloadNamesSection)
{
    SnapshotWriter w;
    w.beginSection("tail");
    for (int i = 0; i < 32; ++i)
        w.u64(static_cast<std::uint64_t>(i));
    w.endSection();
    auto bytes = w.serialize();
    bytes.resize(bytes.size() - 40); // chop into the payload
    try {
        SnapshotReader r(std::move(bytes));
        r.openSection("tail");
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "tail");
    }
}

TEST(SnapshotRobustness, CorruptedByteNamesSection)
{
    SnapshotWriter w;
    w.beginSection("good");
    w.u64(123);
    w.endSection();
    w.beginSection("bad");
    for (int i = 0; i < 8; ++i)
        w.u64(static_cast<std::uint64_t>(i) * 1000003u);
    w.endSection();
    auto bytes = w.serialize();
    bytes.back() ^= 0x5a; // flip a bit inside section "bad"
    SnapshotReader r(std::move(bytes));
    r.openSection("good"); // untouched section still verifies
    EXPECT_EQ(r.u64(), 123u);
    try {
        r.openSection("bad");
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "bad");
    }
}

TEST(SnapshotRobustness, ReadPastSectionEndNamesSection)
{
    SnapshotWriter w;
    w.beginSection("short");
    w.u32(9);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection("short");
    EXPECT_EQ(r.u32(), 9u);
    try {
        (void)r.u64();
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "short");
    }
}

TEST(SnapshotRobustness, MissingSectionNamesIt)
{
    SnapshotWriter w;
    w.beginSection("present");
    w.u8(1);
    w.endSection();
    SnapshotReader r(w.serialize());
    try {
        r.openSection("absent");
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "absent");
    }
}

TEST(SnapshotRobustness, GeometryGuardNamesSectionAndQuantity)
{
    // A cache snapshotted at one geometry must refuse to restore
    // into another, naming the offending section.
    Cache small({"L1D", 16 << 10, 8, 5});
    SnapshotWriter w;
    w.beginSection("c0/l1");
    small.saveState(w);
    w.endSection();

    Cache other({"L1D", 32 << 10, 8, 5});
    SnapshotReader r(w.serialize());
    r.openSection("c0/l1");
    try {
        other.restoreState(r);
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "c0/l1");
        EXPECT_NE(std::string(e.what()).find("mismatch"),
                  std::string::npos);
    }
}

TEST(SnapshotRobustness, ConfigMismatchIsRejectedAtMeta)
{
    const std::string path = tmpPath("config_mismatch");
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    Simulator sim(cfg, {pickWorkload("bwaves")});
    RunPlan plan;
    plan.measured = 0;
    plan.warmup = 2000;
    plan.snapshotAfterWarmup = path;
    sim.run(plan);

    SystemConfig other = cfg;
    other.bandwidthGBps = 12.8;
    try {
        Simulator resume(other, {pickWorkload("bwaves")}, path);
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "meta");
    }
    std::remove(path.c_str());
}

TEST(SnapshotRobustness, ResumedRunRequiresMatchingWarmup)
{
    const std::string path = tmpPath("warmup_mismatch");
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    Simulator sim(cfg, {pickWorkload("bwaves")});
    RunPlan plan;
    plan.measured = 1000;
    plan.warmup = 2000;
    plan.snapshotAfterWarmup = path;
    sim.run(plan);

    Simulator resume(cfg, {pickWorkload("bwaves")}, path);
    RunPlan bad;
    bad.measured = 1000;
    bad.warmup = 999;
    EXPECT_THROW(resume.run(bad), std::invalid_argument);
    std::remove(path.c_str());
}

// -------------------------------------------- randomized round-trip

/**
 * Property: for a randomized configuration, snapshotting after
 * warmup and immediately re-snapshotting the restored simulator
 * yields byte-identical files — i.e. restore loses nothing that
 * save records, across every component the config instantiates.
 */
TEST(SnapshotProperty, SaveRestoreSaveIsByteIdentical)
{
    Rng rng(20260807);
    auto workloads = evalWorkloads();
    constexpr PolicyKind kPolicies[] = {
        PolicyKind::kNaive, PolicyKind::kTlp,  PolicyKind::kHpac,
        PolicyKind::kMab,   PolicyKind::kAthena};
    constexpr CacheDesign kDesigns[] = {
        CacheDesign::kCd1, CacheDesign::kCd2, CacheDesign::kCd3,
        CacheDesign::kCd4};
    constexpr OcpKind kOcps[] = {OcpKind::kNone, OcpKind::kPopet,
                                 OcpKind::kHmp, OcpKind::kTtp};

    for (int trial = 0; trial < 8; ++trial) {
        SystemConfig cfg = makeDesignConfig(
            kDesigns[rng.below(4)],
            kPolicies[rng.below(5)]);
        cfg.ocp = kOcps[rng.below(4)];
        cfg.seed = 7 + rng.below(1000);
        cfg.bandwidthGBps = 1.6 * static_cast<double>(
            1 + rng.below(4));
        const WorkloadSpec &wl =
            workloads[rng.below(workloads.size())];

        const std::string p1 = tmpPath("prop_a");
        const std::string p2 = tmpPath("prop_b");

        Simulator sim(cfg, {wl});
        RunPlan plan;
        plan.measured = 0;
        plan.warmup = 4000 + 1000 * rng.below(4);
        plan.snapshotAfterWarmup = p1;
        sim.run(plan);

        Simulator restored(cfg, {wl}, p1);
        restored.snapshot(p2);

        EXPECT_EQ(readFile(p1), readFile(p2))
            << "trial " << trial << " policy "
            << static_cast<int>(cfg.policy) << " wl " << wl.name;
        std::remove(p1.c_str());
        std::remove(p2.c_str());
    }
}

} // namespace
} // namespace athena
