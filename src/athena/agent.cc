/**
 * @file
 * AthenaAgent implementation.
 */

#include "athena/agent.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

/** Set ATHENA_AGENT_TRACE=1 to dump per-epoch agent decisions. */
bool
traceEnabled()
{
    static const bool enabled = [] {
        const char *v = std::getenv("ATHENA_AGENT_TRACE");
        return v && *v && *v != '0';
    }();
    return enabled;
}

} // namespace

AthenaAgent::AthenaAgent(const AthenaConfig &config)
    : cfg(config), encoder(config.features),
      qvstore([&] {
          QVStoreParams qp = config.qv;
          qp.stateFields =
              static_cast<unsigned>(config.features.size());
          qp.bitsPerField = StateEncoder::kBitsPerFeature;
          return qp;
      }()),
      compositeReward(config.rewardWeights,
                      config.useUncorrelatedReward),
      rng(config.seed)
{
    reset();
}

CoordDecision
AthenaAgent::decisionFor(unsigned action, double degree_scale) const
{
    CoordDecision d;
    if (cfg.prefetcherOnlyMode) {
        // Actions: {none, PF1, PF2, PF1+PF2}; OCP absent.
        d.pfEnableMask = action; // 2-bit mask by construction
        d.ocpEnable = false;
    } else {
        // Actions: {none, OCP, PF-group, PF-group + OCP}.
        bool pf = action == 2 || action == 3;
        bool ocp = action == 1 || action == 3;
        d.pfEnableMask = pf ? ~0u : 0u;
        d.ocpEnable = ocp;
    }
    d.degreeScale.fill(degree_scale);
    return d;
}

double
AthenaAgent::degreeScaleFor(std::uint32_t state, unsigned action) const
{
    bool enables_pf = cfg.prefetcherOnlyMode
                          ? action != 0
                          : (action == 2 || action == 3);
    if (!enables_pf)
        return 0.0;
    // Algorithm 1: confidence = separation of the selected action's
    // Q-value from the mean of the alternatives, normalized by tau.
    // Single-pass: the state's plane rows are resolved once for the
    // whole separation instead of once per q() term.
    double dq = qvstore.qSeparation(state, action);
    if (dq <= 0.0)
        return 0.0;
    return std::min(1.0, dq / cfg.tau);
}

CoordDecision
AthenaAgent::onEpochEnd(const EpochStats &stats)
{
    std::uint32_t state =
        cfg.stateless ? 0u : encoder.encode(stats);

    // Select the next action: epsilon-greedy over the QVStore.
    // Exploratory probes run at full prefetcher aggressiveness so
    // they measure the mechanism's real effect, not a throttled
    // shadow of it.
    unsigned action;
    bool exploratory = cfg.epsilon > 0.0 && rng.chance(cfg.epsilon);
    if (exploratory)
        action = static_cast<unsigned>(
            rng.below(qvstore.params().actions));
    else
        action = qvstore.argmax(state);

    // Reward the previous action and apply the SARSA update. The
    // previous action ran during the epoch summarized by `stats`,
    // so the reward compares this epoch against the one before it.
    // The cold-start priming call (empty stats) never rewards.
    if (havePrev && prevStats.instructions > 0 &&
        stats.instructions > 0) {
        double reward = cfg.ipcRewardOnly
                            ? ipcReward.compute(prevStats, stats)
                            : compositeReward.compute(prevStats,
                                                      stats);
        lastRewardValue = reward;
        qvstore.update(prevState, prevAction, reward, state, action);
        // Re-select in case the update changed the greedy choice.
        if (!exploratory)
            action = qvstore.argmax(state);
    }

    if (traceEnabled()) {
        std::fprintf(stderr,
                     "athena: s=%03x prev_a=%u r=%+.3f next_a=%u%s "
                     "q=[%+.2f %+.2f %+.2f %+.2f] cyc=%llu "
                     "pfI=%llu pfU=%llu dq=%.2f\n",
                     state, prevAction, lastRewardValue, action,
                     exploratory ? "*" : " ", qvstore.q(state, 0),
                     qvstore.q(state, 1), qvstore.q(state, 2),
                     qvstore.q(state, 3),
                     static_cast<unsigned long long>(stats.cycles),
                     static_cast<unsigned long long>(
                         stats.pfIssued[0]),
                     static_cast<unsigned long long>(
                         stats.pfUsed[0]),
                     degreeScaleFor(state, action));
    }

    prevStats = stats;
    prevState = state;
    prevAction = action;
    havePrev = true;
    ++actionCounts[action % actionCounts.size()];

    double scale = exploratory
                       ? 1.0
                       : degreeScaleFor(state, action);
    return decisionFor(action, scale);
}

void
AthenaAgent::reset()
{
    qvstore.reset();
    rng = Rng(cfg.seed);
    havePrev = false;
    prevStats = EpochStats{};
    prevState = 0;
    prevAction = 0;
    lastRewardValue = 0.0;
    actionCounts.fill(0);
}

void
AthenaAgent::saveState(SnapshotWriter &w) const
{
    qvstore.saveState(w);
    w.u64(rng.rawState());
    w.boolean(havePrev);
    writeEpochStats(w, prevStats);
    w.u32(prevState);
    w.u32(prevAction);
    w.f64(lastRewardValue);
    for (std::uint64_t c : actionCounts)
        w.u64(c);
}

void
AthenaAgent::restoreState(SnapshotReader &r)
{
    qvstore.restoreState(r);
    rng.setRawState(r.u64());
    havePrev = r.boolean();
    readEpochStats(r, prevStats);
    prevState = r.u32();
    prevAction = r.u32();
    lastRewardValue = r.f64();
    for (std::uint64_t &c : actionCounts)
        c = r.u64();
}

} // namespace athena
