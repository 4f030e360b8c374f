#include <gtest/gtest.h>

#include <set>

#include "layout/address_space.h"
#include "layout/conflict.h"
#include "sched/basic.h"
#include "sched/dynamic_locality.h"
#include "sched/factory.h"
#include "util/error.h"
#include "workloads/service.h"

namespace laps {
namespace {

ExtendedProcessGraph nProcesses(std::size_t n,
                                std::int64_t iterations = 10) {
  ExtendedProcessGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessSpec p;
    p.name = "P" + std::to_string(i);
    p.nests.push_back(LoopNest{
        IterationSpace::box({{0, iterations * static_cast<std::int64_t>(i + 1)}}),
        {},
        1});
    g.addProcess(std::move(p));
  }
  return g;
}

TEST(ToString, AllKinds) {
  EXPECT_EQ(to_string(SchedulerKind::Random), "RS");
  EXPECT_EQ(to_string(SchedulerKind::RoundRobin), "RRS");
  EXPECT_EQ(to_string(SchedulerKind::Locality), "LS");
  EXPECT_EQ(to_string(SchedulerKind::LocalityMapping), "LSM");
  EXPECT_EQ(to_string(SchedulerKind::Fcfs), "FCFS");
  EXPECT_EQ(to_string(SchedulerKind::Sjf), "SJF");
  EXPECT_EQ(to_string(SchedulerKind::CriticalPath), "CPATH");
  EXPECT_EQ(to_string(SchedulerKind::DynamicLocality), "DLS");
  EXPECT_EQ(to_string(SchedulerKind::L2ContentionAware), "CALS");
  EXPECT_EQ(to_string(SchedulerKind::OnlineLocality), "OLS");
}

TEST(ToString, ExhaustiveOverEveryKind) {
  // kAllSchedulerKinds is the enum's declaration-order catalogue (the
  // compiler's -Werror=switch on to_string's switch keeps them in sync);
  // every kind must map to a unique, non-empty, stable short name.
  std::set<std::string> names;
  for (const SchedulerKind kind : kAllSchedulerKinds) {
    const std::string name = to_string(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate scheduler name " << name;
  }
  EXPECT_EQ(names.size(), kAllSchedulerKinds.size());
}

TEST(Factory, CreatesEveryKind) {
  for (const auto kind : kAllSchedulerKinds) {
    const auto policy = makeScheduler(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
    // The factory's policy answers to the catalogue name (LSM shares
    // LS's policy object; the re-layout half lives in the harness).
    if (kind != SchedulerKind::LocalityMapping) {
      EXPECT_EQ(policy->name(), to_string(kind));
    }
  }
}

TEST(Factory, ValidatesParamsEagerly) {
  // A bad configuration must fail at makeScheduler, not deep inside
  // MpsocSimulator::run().
  SchedulerParams params;
  params.rrsQuantumCycles = 0;
  EXPECT_THROW(makeScheduler(SchedulerKind::RoundRobin, params), Error);
  params.rrsQuantumCycles = -100;
  EXPECT_THROW(makeScheduler(SchedulerKind::RoundRobin, params), Error);
  // The quantum is an RRS-only parameter: other kinds ignore it.
  EXPECT_NE(makeScheduler(SchedulerKind::Fcfs, params), nullptr);

  params = SchedulerParams{};
  params.l2Contention.conflictWeight = -1.0;
  EXPECT_THROW(makeScheduler(SchedulerKind::L2ContentionAware, params), Error);
  params = SchedulerParams{};
  params.l2Contention.l2Geometry.sizeBytes = 1000;  // not a set multiple
  EXPECT_THROW(makeScheduler(SchedulerKind::L2ContentionAware, params), Error);
  EXPECT_NE(makeScheduler(SchedulerKind::Locality, params), nullptr);

  params = SchedulerParams{};
  params.onlineLocality.rebuildThreshold = -1;
  EXPECT_THROW(makeScheduler(SchedulerKind::OnlineLocality, params), Error);
  EXPECT_THROW(validateSchedulerParams(SchedulerKind::OnlineLocality, params),
               Error);
  // The threshold is OLS-only: other kinds ignore it.
  EXPECT_NE(makeScheduler(SchedulerKind::DynamicLocality, params), nullptr);
}

TEST(Factory, OnlyRoundRobinIsPreemptive) {
  EXPECT_TRUE(makeScheduler(SchedulerKind::RoundRobin)->quantum().has_value());
  EXPECT_FALSE(makeScheduler(SchedulerKind::Random)->quantum().has_value());
  EXPECT_FALSE(makeScheduler(SchedulerKind::Locality)->quantum().has_value());
  EXPECT_FALSE(makeScheduler(SchedulerKind::Sjf)->quantum().has_value());
}

TEST(Factory, QuantumParamHonored) {
  SchedulerParams params;
  params.rrsQuantumCycles = 12345;
  EXPECT_EQ(makeScheduler(SchedulerKind::RoundRobin, params)->quantum(),
            12345);
}

TEST(RandomScheduler, DrainsAllReadyExactlyOnce) {
  RandomScheduler policy(7);
  policy.reset({});
  for (ProcessId p = 0; p < 10; ++p) policy.onReady(p);
  std::set<ProcessId> picked;
  for (int i = 0; i < 10; ++i) {
    const auto pick = policy.pickNext(0, std::nullopt);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(picked.insert(*pick).second);
  }
  EXPECT_FALSE(policy.pickNext(0, std::nullopt).has_value());
}

TEST(RandomScheduler, SeedReproducible) {
  const auto drain = [](std::uint64_t seed) {
    RandomScheduler policy(seed);
    policy.reset({});
    for (ProcessId p = 0; p < 20; ++p) policy.onReady(p);
    std::vector<ProcessId> order;
    while (const auto pick = policy.pickNext(0, std::nullopt)) {
      order.push_back(*pick);
    }
    return order;
  };
  EXPECT_EQ(drain(5), drain(5));
  EXPECT_NE(drain(5), drain(6));
}

TEST(RandomScheduler, ResetRestartsStream) {
  RandomScheduler policy(9);
  policy.reset({});
  for (ProcessId p = 0; p < 5; ++p) policy.onReady(p);
  std::vector<ProcessId> first;
  while (const auto pick = policy.pickNext(0, std::nullopt)) {
    first.push_back(*pick);
  }
  policy.reset({});
  for (ProcessId p = 0; p < 5; ++p) policy.onReady(p);
  std::vector<ProcessId> second;
  while (const auto pick = policy.pickNext(0, std::nullopt)) {
    second.push_back(*pick);
  }
  EXPECT_EQ(first, second);
}

TEST(RoundRobinScheduler, FifoOrder) {
  RoundRobinScheduler policy(1000);
  policy.reset({});
  policy.onReady(3);
  policy.onReady(1);
  policy.onReady(2);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 3u);
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 1u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
  EXPECT_FALSE(policy.pickNext(0, std::nullopt).has_value());
}

TEST(RoundRobinScheduler, PreemptedGoesToTail) {
  RoundRobinScheduler policy(1000);
  policy.reset({});
  policy.onReady(0);
  policy.onReady(1);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);
  policy.onPreempt(0);  // 0 must requeue behind 1
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 1u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 0u);
}

TEST(RoundRobinScheduler, RejectsNonPositiveQuantum) {
  EXPECT_THROW(RoundRobinScheduler(0), Error);
  EXPECT_THROW(RoundRobinScheduler(-5), Error);
}

TEST(FcfsScheduler, OrderAndNoQuantum) {
  FcfsScheduler policy;
  policy.reset({});
  policy.onReady(2);
  policy.onReady(0);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 0u);
  EXPECT_FALSE(policy.quantum().has_value());
}

TEST(SjfScheduler, PicksShortestEstimatedJob) {
  const auto g = nProcesses(4);  // cycles grow with id
  SjfScheduler policy;
  policy.reset(SchedContext{&g, nullptr, 2});
  policy.onReady(3);
  policy.onReady(1);
  policy.onReady(2);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 1u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 3u);
}

TEST(SjfScheduler, RequiresGraph) {
  SjfScheduler policy;
  EXPECT_THROW(policy.reset({}), Error);
}

TEST(CriticalPathScheduler, PrefersLongChains) {
  // 0 -> 1 -> 2 (long chain), 3 isolated and short.
  ExtendedProcessGraph g = nProcesses(4, 10);
  g.addDependence(0, 1);
  g.addDependence(1, 2);
  CriticalPathScheduler policy;
  policy.reset(SchedContext{&g, nullptr, 2});
  policy.onReady(0);
  policy.onReady(3);
  // 0 heads a chain: rank(0) = c0+c1+c2 > rank(3) = c3.
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 0u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 3u);
}

TEST(DynamicLocalityScheduler, PicksMaxSharingWithPrevious) {
  const auto g = nProcesses(4);
  SharingMatrix m(4);
  m.set(0, 2, 500);
  m.set(2, 0, 500);
  m.set(0, 1, 100);
  m.set(1, 0, 100);
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 2});
  policy.onReady(1);
  policy.onReady(2);
  policy.onReady(3);
  // Previous on this core was 0: pick 2 (sharing 500).
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 2u);
  // Then 1 (sharing 100) over 3 (0).
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 1u);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 3u);
}

TEST(DynamicLocalityScheduler, NoPreviousFallsBackToFifo) {
  const auto g = nProcesses(3);
  SharingMatrix m(3);
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 1});
  policy.onReady(2);
  policy.onReady(0);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
}

TEST(DynamicLocalityScheduler, RequiresSharing) {
  DynamicLocalityScheduler policy;
  EXPECT_THROW(policy.reset({}), Error);
}

TEST(DynamicLocalityScheduler, ArrivalStampsBreakTiesByArrivalOrder) {
  // P1, P2, P3 share equally with previous P0; P3 arrived first but was
  // readied last (a preempted old process re-queues at the tail). With
  // arrival stamps, the tie falls to the earliest arrival, not to ready
  // order.
  const auto g = nProcesses(4);
  SharingMatrix m(4);
  for (const std::size_t q : {1u, 2u, 3u}) {
    m.set(0, q, 50);
    m.set(q, 0, 50);
  }
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 2});
  policy.onArrival(3);
  policy.onArrival(1);
  policy.onArrival(2);
  policy.onReady(1);
  policy.onReady(2);
  policy.onReady(3);  // readied last, arrived first
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 3u);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 1u);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 2u);
}

TEST(DynamicLocalityScheduler, ClosedModeKeepsFifoTiesWithoutArrivals) {
  const auto g = nProcesses(4);
  SharingMatrix m(4);
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 2});
  policy.onReady(3);
  policy.onReady(1);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 3u);  // plain ready order
}

TEST(DynamicLocalityScheduler, ExitDropsStaleReadyEntry) {
  const auto g = nProcesses(3);
  SharingMatrix m(3);
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 1});
  policy.onReady(0);
  policy.onReady(1);
  policy.onExit(0);  // e.g. retired while waiting
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 1u);
  EXPECT_FALSE(policy.pickNext(0, std::nullopt).has_value());
}

/// Three processes over three arrays laid out so that — in a 32-set L2
/// view — P0's and P2's footprints co-map into the same sets while P1's
/// occupies the other half: conflict(P0, P2) > 0, conflict(P0, P1) == 0,
/// and nobody shares any data.
struct ContentionRig {
  Workload workload;
  AddressSpace space;
  SharingMatrix sharing;
  SchedContext context;

  static Workload build() {
    Workload w;
    // 512 B each, placed contiguously 32-byte aligned: X spans sets
    // 0..15, Y sets 16..31, Z wraps back onto 0..15.
    const ArrayId x = w.arrays.add("X", {128}, 4);
    const ArrayId y = w.arrays.add("Y", {128}, 4);
    const ArrayId z = w.arrays.add("Z", {128}, 4);
    for (const ArrayId a : {x, y, z}) {
      ProcessSpec p;
      p.name = "P" + std::to_string(a);
      p.nests.push_back(LoopNest{
          IterationSpace::box({{0, 128}}),
          {ArrayAccess{a, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
          1});
      w.graph.addProcess(std::move(p));
    }
    return w;
  }

  ContentionRig()
      : workload(build()),
        space(workload.arrays, AddressSpaceOptions{0x1000'0000, 32}),
        sharing(workload.graph.processCount()),
        context{&workload.graph, &sharing, 2, &workload, &space} {}

  static L2ContentionOptions options(double weight) {
    L2ContentionOptions o;
    o.l2Geometry = CacheConfig{1024, 1, 32, 8};  // 32 sets
    o.conflictWeight = weight;
    return o;
  }
};

TEST(L2ContentionAwareScheduler, ConflictMatrixFollowsTheLayout) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options(1.0));
  policy.reset(rig.context);
  EXPECT_GT(policy.conflictBetween(0, 2), 0);  // X and Z co-map
  EXPECT_EQ(policy.conflictBetween(0, 1), 0);  // X and Y are disjoint sets
  EXPECT_EQ(policy.conflictBetween(1, 2), 0);
}

TEST(L2ContentionAwareScheduler, AvoidsCoSchedulingConflictingFootprints) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options(1.0));
  policy.reset(rig.context);
  policy.onReady(0);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);  // P0 runs on core 0
  policy.onReady(2);  // conflicts with running P0, ready first
  policy.onReady(1);  // conflict-free
  // Core 1 must prefer the conflict-free process despite FIFO order...
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 1u);
  // ...and once P0 completes, the penalty vanishes.
  policy.onComplete(0);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
}

TEST(L2ContentionAwareScheduler, ZeroWeightDegeneratesToFifoTies) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options(0.0));
  policy.reset(rig.context);
  policy.onReady(0);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);
  policy.onReady(2);
  policy.onReady(1);
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 2u);  // plain FIFO again
}

TEST(L2ContentionAwareScheduler, PreemptionReleasesThePenalty) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options(1.0));
  policy.reset(rig.context);
  policy.onReady(0);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);
  policy.onPreempt(0);  // suspended: no longer occupies the L2
  policy.onReady(2);
  // P0 is back in the queue (FIFO ahead of P2) and nothing is running,
  // so the conflicting P2 is not penalized against anything.
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 0u);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 2u);
}

TEST(L2ContentionAwareScheduler, ExitOfARunningProcessReleasesThePenalty) {
  // A retirement fires onExit without onComplete: the retired process
  // must stop penalizing co-runners all the same.
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options(1.0));
  policy.reset(rig.context);
  policy.onReady(0);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);  // P0 occupies the L2
  policy.onReady(2);
  policy.onReady(1);
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 1u);  // P2 conflicts with P0
  policy.onExit(0);  // retired mid-run
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);  // penalty gone
}

TEST(L2ContentionAwareScheduler, ExitDropsStaleReadyEntry) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options(1.0));
  policy.reset(rig.context);
  policy.onReady(0);
  policy.onReady(1);
  policy.onExit(0);  // left while still queued
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 1u);
  EXPECT_FALSE(policy.pickNext(1, std::nullopt).has_value());
}

TEST(L2ContentionAwareScheduler, RequiresWorkloadAndSpace) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options(1.0));
  SchedContext incomplete = rig.context;
  incomplete.workload = nullptr;
  EXPECT_THROW(policy.reset(incomplete), Error);
  incomplete = rig.context;
  incomplete.space = nullptr;
  EXPECT_THROW(policy.reset(incomplete), Error);
  incomplete = rig.context;
  incomplete.coreCount = 0;
  EXPECT_THROW(policy.reset(incomplete), Error);
}

/// Co-mapped line pairs of every pair of \p context's processes,
/// from dense per-process set occupancies computed here, not by the
/// policy.
std::vector<std::int64_t> denseConflicts(const SchedContext& context,
                                         const CacheConfig& geometry) {
  const std::vector<Footprint> footprints = context.workload->footprints();
  const auto sets = static_cast<std::size_t>(geometry.numSets());
  std::vector<std::vector<std::int64_t>> occupancy;
  for (const Footprint& fp : footprints) {
    std::vector<std::int64_t> occ(sets, 0);
    for (const auto& [array, elements] : fp.perArray()) {
      const std::vector<std::int64_t> one = setOccupancy(
          context.space->byteIntervals(array, elements), geometry);
      for (std::size_t s = 0; s < sets; ++s) occ[s] += one[s];
    }
    occupancy.push_back(std::move(occ));
  }
  const std::size_t n = occupancy.size();
  std::vector<std::int64_t> conflicts(n * n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t s = 0; s < sets; ++s) {
        conflicts[a * n + b] += occupancy[a][s] * occupancy[b][s];
      }
    }
  }
  return conflicts;
}

TEST(L2ContentionAwareScheduler, ConflictBetweenIsTheDenseDotProduct) {
  // The policy keeps only the nonzero sets of each occupancy; its
  // pairwise conflict must still be the dense dot product, symmetric in
  // its arguments — on the rig's hand-placed arrays and on a service
  // workload in the default 1024-set geometry.
  ContentionRig rig;
  const Workload service = makeServiceWorkload(ServiceWorkloadParams{});
  const AddressSpace serviceSpace(service.arrays);
  const SharingMatrix serviceSharing(service.graph.processCount());
  const SchedContext serviceContext{&service.graph, &serviceSharing, 2,
                                    &service, &serviceSpace};
  for (const auto& [context, options] :
       {std::pair{rig.context, ContentionRig::options(1.0)},
        std::pair{serviceContext, L2ContentionOptions{}}}) {
    L2ContentionAwareScheduler policy(options);
    policy.reset(context);
    const std::size_t n = context.workload->graph.processCount();
    const std::vector<std::int64_t> expected =
        denseConflicts(context, options.l2Geometry);
    std::int64_t total = 0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        const std::int64_t score = policy.conflictBetween(a, b);
        EXPECT_EQ(score, expected[a * n + b]) << a << "," << b;
        EXPECT_EQ(score, policy.conflictBetween(b, a)) << a << "," << b;
        total += score;
      }
    }
    EXPECT_GT(total, 0);
  }
}

}  // namespace
}  // namespace laps
