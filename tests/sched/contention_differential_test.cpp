/// \file contention_differential_test.cpp
/// \brief L2ContentionAwareScheduler (CALS) against its legacy oracle
/// (tests/oracles/legacy_l2_contention.h): the running-set occupancy
/// aggregate must make exactly the decisions of the pairwise conflict
/// loop — in random policy-level event sequences, and end to end through
/// MpsocSimulator on open service workloads with lifetimes, crashes,
/// retries and core outages, on flat and shared-L2 platforms, at every
/// conflict weight and analysis thread count.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/laps.h"
#include "oracles/legacy_l2_contention.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace laps {
namespace {

/// Restores automatic thread-count resolution when a test exits.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { setParallelThreadCount(0); }
};

void expectStatsEqual(const CacheStats& a, const CacheStats& b,
                      const char* what) {
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.dirtyEvictions, b.dirtyEvictions) << what;
  EXPECT_EQ(a.invalidations, b.invalidations) << what;
}

void expectSojournEqual(const SojournPercentiles& a,
                        const SojournPercentiles& b, const char* what) {
  EXPECT_EQ(a.p50, b.p50) << what;
  EXPECT_EQ(a.p95, b.p95) << what;
  EXPECT_EQ(a.p99, b.p99) << what;
  EXPECT_EQ(a.samples, b.samples) << what;
}

/// Every field of two SimResults, field by field.
void expectIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespanCycles, b.makespanCycles);
  EXPECT_EQ(a.seconds, b.seconds);
  expectStatsEqual(a.dcacheTotal, b.dcacheTotal, "dcache");
  expectStatsEqual(a.icacheTotal, b.icacheTotal, "icache");
  EXPECT_EQ(a.dataMisses.compulsory, b.dataMisses.compulsory);
  EXPECT_EQ(a.dataMisses.capacity, b.dataMisses.capacity);
  EXPECT_EQ(a.dataMisses.conflict, b.dataMisses.conflict);
  EXPECT_EQ(a.sharedL2Enabled, b.sharedL2Enabled);
  expectStatsEqual(a.l2Total, b.l2Total, "l2");
  EXPECT_EQ(a.l2BankWaitCycles, b.l2BankWaitCycles);
  EXPECT_EQ(a.inclusionWritebacks, b.inclusionWritebacks);
  EXPECT_EQ(a.busTransactions, b.busTransactions);
  EXPECT_EQ(a.busWaitCycles, b.busWaitCycles);
  EXPECT_EQ(a.nocEnabled, b.nocEnabled);
  EXPECT_EQ(a.nocTransfers, b.nocTransfers);
  EXPECT_EQ(a.nocPostedTransfers, b.nocPostedTransfers);
  EXPECT_EQ(a.nocHopCycles, b.nocHopCycles);
  EXPECT_EQ(a.nocLinkWaitCycles, b.nocLinkWaitCycles);
  EXPECT_EQ(a.nocMigrationPenaltyCycles, b.nocMigrationPenaltyCycles);
  EXPECT_EQ(a.directoryEnabled, b.directoryEnabled);
  EXPECT_EQ(a.directoryInvalidationsSent, b.directoryInvalidationsSent);
  EXPECT_EQ(a.directoryInvalidationsFiltered,
            b.directoryInvalidationsFiltered);
  EXPECT_EQ(a.contextSwitches, b.contextSwitches);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.retiredProcesses, b.retiredProcesses);
  EXPECT_EQ(a.rejectedProcesses, b.rejectedProcesses);
  expectSojournEqual(a.sojourn, b.sojourn, "sojourn");
  EXPECT_EQ(a.faults.coreFailures, b.faults.coreFailures);
  EXPECT_EQ(a.faults.coreOutages, b.faults.coreOutages);
  EXPECT_EQ(a.faults.coreRecoveries, b.faults.coreRecoveries);
  EXPECT_EQ(a.faults.faultsSuppressed, b.faults.faultsSuppressed);
  EXPECT_EQ(a.faults.processCrashes, b.faults.processCrashes);
  EXPECT_EQ(a.faults.retriesScheduled, b.faults.retriesScheduled);
  EXPECT_EQ(a.faults.retriesShed, b.faults.retriesShed);
  EXPECT_EQ(a.faults.failedProcesses, b.faults.failedProcesses);
  EXPECT_EQ(a.faults.faultMigrations, b.faults.faultMigrations);
  EXPECT_EQ(a.faults.migrationPenaltyCycles, b.faults.migrationPenaltyCycles);
  EXPECT_EQ(a.faults.coreDownCycles, b.faults.coreDownCycles);
  EXPECT_EQ(a.switchOverheadCycles, b.switchOverheadCycles);
  EXPECT_EQ(a.coreBusyCycles, b.coreBusyCycles);
  EXPECT_EQ(a.coreIdleCycles, b.coreIdleCycles);
  EXPECT_EQ(a.policy.decisions, b.policy.decisions);
  EXPECT_EQ(a.policy.rebuilds, b.policy.rebuilds);
  EXPECT_EQ(a.policy.patches, b.policy.patches);
  EXPECT_EQ(a.policy.steals, b.policy.steals);
  EXPECT_EQ(a.policy.offloads, b.policy.offloads);
  ASSERT_EQ(a.cohorts.size(), b.cohorts.size());
  for (std::size_t t = 0; t < a.cohorts.size(); ++t) {
    const CohortStats& x = a.cohorts[t];
    const CohortStats& y = b.cohorts[t];
    EXPECT_EQ(x.task, y.task) << "cohort " << t;
    EXPECT_EQ(x.arrivalCycle, y.arrivalCycle) << "cohort " << t;
    EXPECT_EQ(x.completionCycle, y.completionCycle) << "cohort " << t;
    EXPECT_EQ(x.processCount, y.processCount) << "cohort " << t;
    EXPECT_EQ(x.retiredCount, y.retiredCount) << "cohort " << t;
    EXPECT_EQ(x.rejectedCount, y.rejectedCount) << "cohort " << t;
    EXPECT_EQ(x.failedCount, y.failedCount) << "cohort " << t;
    EXPECT_EQ(x.totalLatencyCycles, y.totalLatencyCycles) << "cohort " << t;
    expectSojournEqual(x.sojourn, y.sojourn, "cohort sojourn");
  }
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t p = 0; p < a.processes.size(); ++p) {
    const ProcessRunRecord& x = a.processes[p];
    const ProcessRunRecord& y = b.processes[p];
    EXPECT_EQ(x.id, y.id) << "process " << p;
    EXPECT_EQ(x.arrivalCycle, y.arrivalCycle) << "process " << p;
    EXPECT_EQ(x.firstStartCycle, y.firstStartCycle) << "process " << p;
    EXPECT_EQ(x.completionCycle, y.completionCycle) << "process " << p;
    EXPECT_EQ(x.lastCore, y.lastCore) << "process " << p;
    EXPECT_EQ(x.segments, y.segments) << "process " << p;
    EXPECT_EQ(x.retired, y.retired) << "process " << p;
    EXPECT_EQ(x.rejected, y.rejected) << "process " << p;
    EXPECT_EQ(x.failed, y.failed) << "process " << p;
    EXPECT_EQ(x.crashes, y.crashes) << "process " << p;
  }
}

/// One random open service scenario: the workload, the platform and the
/// open-mode inputs runExperiment would hand the engine.
struct Scenario {
  Workload workload;
  MpsocConfig mpsoc;
  L2ContentionOptions options;

  Scenario(std::uint64_t seed, bool sharedL2, double weight) {
    Rng rng(seed);
    ServiceWorkloadParams params;
    params.seed = seed;
    params.requestCount = static_cast<std::size_t>(rng.range(32, 64));
    params.keyCount = static_cast<std::size_t>(rng.range(8, 32));
    params.keysPerRequest = static_cast<std::size_t>(rng.range(1, 3));
    params.valueElems = std::int64_t{128} << rng.range(0, 1);
    workload = makeServiceWorkload(params);

    mpsoc.coreCount = static_cast<std::size_t>(rng.range(2, 8));
    // Arrivals near saturation keep ready queues deep and several cores
    // busy at once; the lifetime retires processes mid-segment.
    mpsoc.arrivals.emplace();
    mpsoc.arrivals->seed = seed;
    mpsoc.arrivals->granularity = ArrivalGranularity::PerProcess;
    mpsoc.arrivals->distribution = static_cast<ArrivalDistribution>(
        rng.below(3));
    mpsoc.arrivals->meanInterArrivalCycles = rng.range(300, 1'500);
    mpsoc.arrivals->processLifetimeCycles = rng.range(10'000, 60'000);
    // Crashes (onExit of a running process, then a retry) and transient
    // core outages.
    FaultPlan faults;
    faults.seed = seed;
    faults.meanCrashCycles = rng.range(8'000, 30'000);
    faults.meanCoreOutageCycles = rng.range(30'000, 120'000);
    faults.outageDownCycles = 20'000;
    faults.retry.maxAttempts = 2;
    faults.retry.backoffJitterCycles = 256;
    mpsoc.faults = faults;

    options.conflictWeight = weight;
    if (sharedL2) {
      // A shared L2 with a different set count than the default
      // geometry (512 sets vs 1024), as runExperiment wires it.
      PlatformConfig platform;
      platform.sharedL2.emplace();
      platform.sharedL2->sizeBytes = 64 * 1024;
      platform.sharedL2->assoc = 4;
      platform.sharedL2->bankCount = 4;
      mpsoc.platform = platform;
      options.l2Geometry = platform.sharedL2->aggregateConfig();
    }
  }

  SimResult run(SchedulerPolicy& policy) const {
    const std::vector<Footprint> footprints = workload.footprints();
    const SharingMatrix sharing = SharingMatrix::inactive(footprints.size());
    const AddressSpace space(workload.arrays);
    MpsocSimulator simulator(workload, space, sharing, policy, mpsoc);
    simulator.provideFootprints(footprints);
    return simulator.run();
  }
};

TEST(L2ContentionDifferential, MatchesLegacyFullOpenSimulation) {
  ThreadCountGuard guard;
  std::uint64_t crashes = 0;
  std::uint64_t retiredRunning = 0;
  // One scenario per combination, each from its own seed.
  std::uint64_t seed = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    setParallelThreadCount(threads);
    for (const bool sharedL2 : {false, true}) {
      for (const double weight : {0.0, 1.0, 2.5}) {
        ++seed;
        SCOPED_TRACE(testing::Message()
                     << "threads " << threads << " sharedL2 " << sharedL2
                     << " weight " << weight << " seed " << seed);
        const Scenario scenario(seed, sharedL2, weight);
        L2ContentionAwareScheduler aggregate(scenario.options);
        LegacyL2ContentionAwareScheduler legacy(scenario.options);
        const SimResult a = scenario.run(aggregate);
        const SimResult b = scenario.run(legacy);
        expectIdentical(a, b);
        EXPECT_EQ(a.sharedL2Enabled, sharedL2);
        EXPECT_GT(a.completedProcesses(), 0u);
        crashes += a.faults.processCrashes;
        for (const ProcessRunRecord& record : a.processes) {
          if (record.retired && record.segments > 0) ++retiredRunning;
        }
      }
    }
  }
  // Both ways a running process stops without completing really ran:
  // crashes, and lifetimes cut mid-segment. (CALS has no quantum, so the
  // engine never preempts it; the policy-level test covers onPreempt.)
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(retiredRunning, 0u);
}

TEST(L2ContentionDifferential, MatchesLegacyOnRandomEventSequences) {
  // Policy-level lockstep, including what the engine never does: a pick
  // on a core whose slot still holds an unstopped process (which must
  // not penalize the candidates), and one process in two slots.
  const Workload workload = makeServiceWorkload(ServiceWorkloadParams{});
  const std::size_t n = workload.graph.processCount();
  const SharingMatrix sharing = SharingMatrix::compute(workload.footprints());
  const AddressSpace space(workload.arrays);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t cores = static_cast<std::size_t>(rng.range(1, 6));
    // The default 1024-set geometry spans 32 KB, so the 4 KB-aligned
    // arrays land on eight different set blocks and candidates differ in
    // conflicts (in a span of one page every array co-maps alike).
    L2ContentionOptions options;
    options.conflictWeight = seed % 3 == 0 ? 0.0 : 1.0;
    L2ContentionAwareScheduler aggregate(options);
    LegacyL2ContentionAwareScheduler legacy(options);
    const SchedContext context{&workload.graph, &sharing, cores, &workload,
                               &space};
    aggregate.reset(context);
    legacy.reset(context);

    enum class State { Idle, Ready, Running, Gone };
    std::vector<State> state(n, State::Idle);
    std::vector<std::optional<ProcessId>> previous(cores);
    const auto any = [&](State s) {
      std::vector<ProcessId> out;
      for (ProcessId p = 0; p < n; ++p) {
        if (state[p] == s) out.push_back(p);
      }
      return out;
    };
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.below(7);
      if (op <= 1) {  // arrival + ready
        const std::vector<ProcessId> idle = any(State::Idle);
        if (idle.empty()) continue;
        const ProcessId p = idle[rng.index(idle.size())];
        aggregate.onArrival(p);
        legacy.onArrival(p);
        aggregate.onReady(p);
        legacy.onReady(p);
        state[p] = State::Ready;
      } else if (op == 2) {  // pick, on a possibly still-occupied core
        const std::size_t core = rng.index(cores);
        const auto a = aggregate.pickNext(core, previous[core]);
        const auto b = legacy.pickNext(core, previous[core]);
        ASSERT_EQ(a, b) << "seed " << seed << " step " << step;
        if (a) {
          state[*a] = State::Running;
          previous[core] = a;
        }
      } else {  // stop a running process: complete, preempt or exit
        const std::vector<ProcessId> running = any(State::Running);
        if (running.empty()) continue;
        const ProcessId p = running[rng.index(running.size())];
        if (op == 6) {
          // Ready again without a stop: its slot stays occupied, and the
          // next pick of it fills a second one.
          aggregate.onReady(p);
          legacy.onReady(p);
          state[p] = State::Ready;
        } else if (op == 3) {
          aggregate.onComplete(p);
          legacy.onComplete(p);
          state[p] = State::Idle;  // may run again: a second slot later
        } else if (op == 4) {
          aggregate.onPreempt(p);
          legacy.onPreempt(p);
          state[p] = State::Ready;
        } else {
          aggregate.onExit(p);
          legacy.onExit(p);
          state[p] = State::Gone;
        }
      }
    }
  }
}

}  // namespace
}  // namespace laps
