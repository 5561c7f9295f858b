/**
 * @file
 * Property-based sweeps: simulator invariants that must hold for
 * every workload in the zoo and across randomized configurations.
 */


#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "sim/simulator.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

/** Invariants of any simulation result. */
void
checkInvariants(const SimResult &res, std::uint64_t instr)
{
    ASSERT_FALSE(res.cores.empty());
    for (const auto &core : res.cores) {
        EXPECT_EQ(core.instructions, instr);
        EXPECT_GT(core.cycles, 0u);
        EXPECT_GT(core.ipc, 0.0);
        EXPECT_LE(core.ipc, 6.0) << "IPC cannot exceed core width";
        EXPECT_LE(core.loads, core.instructions);
        EXPECT_LE(core.branchMispredicts, core.instructions);
        for (const auto &pf : core.pf) {
            EXPECT_LE(pf.used, pf.issued)
                << "used prefetches cannot exceed issued";
            EXPECT_LE(pf.usedTimely, pf.used);
            EXPECT_LE(pf.fillsFromDramUnused, pf.fillsFromDram);
        }
        EXPECT_LE(core.ocpCorrect, core.ocpPredictions);
    }
    EXPECT_GE(res.busUtilization, 0.0);
    EXPECT_LE(res.busUtilization, 1.0);
}

/** Every zoo workload satisfies the invariants under the default
 *  (naive) CD1 system. */
class WorkloadInvariants
    : public ::testing::TestWithParam<WorkloadSpec>
{};

TEST_P(WorkloadInvariants, HoldUnderNaiveCd1)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    Simulator sim(cfg, {GetParam()});
    SimResult res = sim.run({30000, 8000});
    checkInvariants(res, 30000);
}

TEST_P(WorkloadInvariants, MemoryIntensiveEnough)
{
    // Paper's selection criterion: >= 3 LLC MPKI without
    // speculation. Allow a little slack at this reduced scale.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAllOff);
    Simulator sim(cfg, {GetParam()});
    SimResult res = sim.run({30000, 8000});
    double mpki = 1000.0 *
                  static_cast<double>(res.cores[0].llcMisses) /
                  static_cast<double>(res.cores[0].instructions);
    EXPECT_GE(mpki, 2.0) << GetParam().name
                         << " is not memory-intensive";
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, WorkloadInvariants, ::testing::ValuesIn(evalWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadSpec> &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

/**
 * The same invariants under Athena on the designs that together
 * cover POPET, Pythia, SMS and IPCP (CD1: POPET + Pythia; CD3:
 * POPET + SMS + Pythia; CD4: POPET + IPCP + Pythia), over one
 * streaming, one pointer-chasing and one region-spatial zoo
 * workload.
 */
class AthenaInvariants
    : public ::testing::TestWithParam<std::tuple<CacheDesign, Pattern>>
{};

/** First evaluation workload whose first phase has @p pattern. */
WorkloadSpec
zooWorkloadWith(Pattern pattern)
{
    for (const WorkloadSpec &spec : evalWorkloads()) {
        if (!spec.phases.empty() && spec.phases[0].pattern == pattern)
            return spec;
    }
    throw std::logic_error("no zoo workload with that pattern");
}

TEST_P(AthenaInvariants, Hold)
{
    const auto [design, pattern] = GetParam();
    SystemConfig cfg = makeDesignConfig(design, PolicyKind::kAthena);
    Simulator sim(cfg, {zooWorkloadWith(pattern)});
    SimResult res = sim.run({30000, 8000});
    checkInvariants(res, 30000);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, AthenaInvariants,
    ::testing::Combine(::testing::Values(CacheDesign::kCd1,
                                         CacheDesign::kCd3,
                                         CacheDesign::kCd4),
                       ::testing::Values(Pattern::kStream,
                                         Pattern::kChase,
                                         Pattern::kRegionSpatial)),
    [](const ::testing::TestParamInfo<AthenaInvariants::ParamType>
           &info) {
        const Pattern pattern = std::get<1>(info.param);
        const char *name = pattern == Pattern::kStream  ? "Stream"
                           : pattern == Pattern::kChase ? "Chase"
                                                        : "RegionSpatial";
        return cacheDesignName(std::get<0>(info.param)) +
               std::string(name);
    });

/** Randomized configuration fuzz: any combination of components
 *  must run cleanly and satisfy the invariants. */
TEST(ConfigFuzz, RandomConfigurationsAreWellFormed)
{
    Rng rng(2024);
    auto workloads = evalWorkloads();
    const PrefetcherKind l1[] = {PrefetcherKind::kNone,
                                 PrefetcherKind::kIpcp,
                                 PrefetcherKind::kBerti};
    const PrefetcherKind l2[] = {
        PrefetcherKind::kNone,   PrefetcherKind::kPythia,
        PrefetcherKind::kSppPpf, PrefetcherKind::kMlop,
        PrefetcherKind::kSms,    PrefetcherKind::kStride};
    const OcpKind ocps[] = {OcpKind::kNone, OcpKind::kPopet,
                            OcpKind::kHmp, OcpKind::kTtp};
    const PolicyKind policies[] = {
        PolicyKind::kNaive, PolicyKind::kTlp, PolicyKind::kHpac,
        PolicyKind::kMab, PolicyKind::kAthena};
    const double bandwidths[] = {1.6, 3.2, 6.4, 12.8, 25.6};

    for (int trial = 0; trial < 24; ++trial) {
        SystemConfig cfg;
        cfg.label = "fuzz" + std::to_string(trial);
        cfg.l1dPf = l1[rng.below(3)];
        cfg.l2cPf = l2[rng.below(6)];
        cfg.ocp = ocps[rng.below(4)];
        cfg.policy = policies[rng.below(5)];
        cfg.bandwidthGBps = bandwidths[rng.below(5)];
        cfg.athena.prefetcherOnlyMode = cfg.ocp == OcpKind::kNone;
        const WorkloadSpec &spec =
            workloads[rng.below(workloads.size())];
        Simulator sim(cfg, {spec});
        SimResult res = sim.run({15000, 4000});
        checkInvariants(res, 15000);
    }
}

TEST(ConfigFuzz, EpochLengthSweepIsStable)
{
    auto workloads = evalWorkloads();
    const WorkloadSpec &spec = workloads[0];
    for (std::uint64_t epoch : {500u, 2000u, 8000u, 32000u}) {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        cfg.epochInstructions = epoch;
        Simulator sim(cfg, {spec});
        SimResult res = sim.run({20000, 5000});
        checkInvariants(res, 20000);
    }
}

TEST(ConfigFuzz, AllCacheDesignsRunAllPolicies)
{
    auto workloads = evalWorkloads();
    const WorkloadSpec &spec = workloads[20];
    for (CacheDesign design :
         {CacheDesign::kCd1, CacheDesign::kCd2, CacheDesign::kCd3,
          CacheDesign::kCd4}) {
        for (PolicyKind policy :
             {PolicyKind::kAllOff, PolicyKind::kNaive,
              PolicyKind::kTlp, PolicyKind::kHpac, PolicyKind::kMab,
              PolicyKind::kAthena}) {
            SystemConfig cfg = makeDesignConfig(design, policy);
            Simulator sim(cfg, {spec});
            SimResult res = sim.run({10000, 2000});
            checkInvariants(res, 10000);
        }
    }
}

} // namespace
} // namespace athena
