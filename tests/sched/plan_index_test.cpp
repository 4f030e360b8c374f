/// \file plan_index_test.cpp
/// \brief Differential property tests for the indexed planner core:
/// buildLocalityPlan (cached indegrees + ready-list argmax) must be
/// plan-identical to buildLocalityPlanLegacy (the pre-index Fig. 3
/// loops) on random DAGs across subset spans and core counts, and
/// dispatch-mode popBest must match pickMaxSharing decision-for-
/// decision.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/laps.h"
#include "oracles/legacy_locality_plan.h"

namespace laps {
namespace {

/// Random DAG over \p n processes: edges only from lower to higher ids
/// (acyclic by construction), density ~ edgePercent per candidate pair,
/// capped at a handful of predecessors so wide ready fronts survive.
ExtendedProcessGraph randomDag(Rng& rng, std::size_t n,
                               std::uint64_t edgePercent) {
  ExtendedProcessGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessSpec p;
    p.name = "R" + std::to_string(i);
    graph.addProcess(std::move(p));
  }
  for (std::size_t to = 1; to < n; ++to) {
    std::size_t preds = 0;
    for (std::size_t from = 0; from < to && preds < 4; ++from) {
      if (rng.below(100) < edgePercent) {
        graph.addDependence(static_cast<ProcessId>(from),
                            static_cast<ProcessId>(to));
        ++preds;
      }
    }
  }
  return graph;
}

/// Random symmetric sharing matrix with a small value range so ties are
/// common — the tie-break (smallest id) is the part most worth pinning.
SharingMatrix randomSharing(Rng& rng, std::size_t n) {
  SharingMatrix sharing(n);
  for (std::size_t p = 0; p < n; ++p) {
    sharing.set(p, p, static_cast<std::int64_t>(rng.below(16)));
    for (std::size_t q = 0; q < p; ++q) {
      const auto s = static_cast<std::int64_t>(rng.below(8));
      sharing.set(p, q, s);
      sharing.set(q, p, s);
    }
  }
  return sharing;
}

void expectPlansEqual(const LocalityPlan& a, const LocalityPlan& b,
                      std::uint64_t seed, std::size_t coreCount) {
  ASSERT_EQ(a.perCore.size(), b.perCore.size())
      << "seed " << seed << " cores " << coreCount;
  for (std::size_t c = 0; c < a.perCore.size(); ++c) {
    ASSERT_EQ(a.perCore[c], b.perCore[c])
        << "seed " << seed << " cores " << coreCount << " core " << c;
  }
}

TEST(PlanIndexDifferential, MatchesLegacyOnRandomDags) {
  // 200 random DAGs x core counts x options x subset spans. Any
  // divergence prints the seed, so a failure reproduces standalone.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const std::size_t n = 1 + static_cast<std::size_t>(rng.below(48));
    const std::uint64_t density = 5 + rng.below(45);
    const ExtendedProcessGraph graph = randomDag(rng, n, density);
    const SharingMatrix sharing = randomSharing(rng, n);

    LocalityOptions options;
    options.initialMinSharingRound = (seed % 2 == 0);

    for (const std::size_t coreCount : {std::size_t{1}, std::size_t{2},
                                        std::size_t{3}, std::size_t{8}}) {
      expectPlansEqual(
          buildLocalityPlan(graph, sharing, coreCount, options),
          buildLocalityPlanLegacy(graph, sharing, coreCount, options),
          seed, coreCount);
    }

    // A random subset span (the OLS rebuild path plans over the live
    // subset, not the full universe).
    std::vector<ProcessId> subset;
    for (ProcessId p = 0; p < n; ++p) subset.push_back(p);
    rng.shuffle(subset);
    subset.resize(1 + static_cast<std::size_t>(rng.below(n)));
    std::sort(subset.begin(), subset.end());
    const std::size_t coreCount = 1 + static_cast<std::size_t>(rng.below(8));
    expectPlansEqual(
        buildLocalityPlan(graph, sharing, coreCount, options, subset),
        buildLocalityPlanLegacy(graph, sharing, coreCount, options, subset),
        seed, coreCount);
  }
}

TEST(PlanIndexDifferential, MatchesLegacyOnRealWorkload) {
  // The benchmark-suite mixes exercise the realistic sharing topology
  // (dense blocks within an application, sparse across).
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 3);
  const SharingMatrix sharing = SharingMatrix::compute(mix.footprints());
  for (const std::size_t coreCount : {std::size_t{2}, std::size_t{8}}) {
    expectPlansEqual(buildLocalityPlan(mix.graph, sharing, coreCount),
                     buildLocalityPlanLegacy(mix.graph, sharing, coreCount),
                     9999, coreCount);
  }
}

TEST(PlanIndexDifferential, DispatchPopMatchesPickMaxSharing) {
  // Dispatch mode against the legacy argmax: random interleavings of
  // markReady / markUnready / popBest must agree with pickMaxSharing
  // over a mirrored ready vector at every pick.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 0x517cc1b727220a95ULL + 3);
    const std::size_t n = 4 + static_cast<std::size_t>(rng.below(40));
    const SharingMatrix sharing = randomSharing(rng, n);
    const std::size_t coreCount = 1 + static_cast<std::size_t>(rng.below(4));

    PlanIndex index;
    index.beginDispatch(sharing, n, coreCount);
    std::vector<bool> mirror(n, false);

    for (int step = 0; step < 300; ++step) {
      const std::uint64_t action = rng.below(10);
      const auto p = static_cast<ProcessId>(rng.below(n));
      if (action < 4) {
        index.markReady(p);
        mirror[p] = true;
      } else if (action < 6) {
        if (index.isReady(p)) index.markUnready(p);
        mirror[p] = false;
      } else {
        const auto core = static_cast<std::size_t>(rng.below(coreCount));
        std::optional<ProcessId> anchor;
        if (rng.below(4) != 0) anchor = static_cast<ProcessId>(rng.below(n));
        const auto expected = pickMaxSharing(mirror, sharing, anchor);
        const auto got = index.popBest(core, anchor);
        ASSERT_EQ(got, expected) << "seed " << seed << " step " << step;
        if (got) mirror[*got] = false;  // popBest marks the winner unready
      }
      ASSERT_EQ(index.readyCount(),
                static_cast<std::size_t>(
                    std::count(mirror.begin(), mirror.end(), true)));
    }
  }
}

TEST(PlanIndexDispatch, PopsTheMaximumSharingCandidate) {
  SharingMatrix sharing(6);
  for (std::size_t q = 1; q < 6; ++q) {
    sharing.set(0, q, static_cast<std::int64_t>(10 * q));
    sharing.set(q, 0, static_cast<std::int64_t>(10 * q));
  }
  PlanIndex index;
  index.beginDispatch(sharing, 6, 2);
  for (ProcessId p = 1; p < 6; ++p) index.markReady(p);
  const auto best = index.popBest(0, ProcessId{0});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 5u);  // max sharing(0, q) = 50
  // Anchorless: the smallest ready id.
  EXPECT_EQ(index.popBest(1, std::nullopt), ProcessId{1});
  EXPECT_EQ(index.readyCount(), 3u);
}

TEST(PlanIndexPlanner, PlaceReleasesSuccessors) {
  // Planner mode owns readiness: a chain 0 -> 1 -> 2 becomes ready one
  // link at a time as place() decrements cached indegrees.
  ExtendedProcessGraph graph;
  for (int i = 0; i < 3; ++i) {
    ProcessSpec p;
    p.name = "C" + std::to_string(i);
    graph.addProcess(std::move(p));
  }
  graph.addDependence(0, 1);
  graph.addDependence(1, 2);
  SharingMatrix sharing(3);
  PlanIndex index;
  index.beginPlanner(graph, sharing, 1, std::vector<bool>(3, true));
  EXPECT_EQ(index.readyCount(), 1u);
  EXPECT_TRUE(index.isReady(0));
  const auto head = index.popBest(0, std::nullopt);
  ASSERT_EQ(head, ProcessId{0});
  EXPECT_EQ(index.readyCount(), 0u);
  index.place(*head);
  EXPECT_TRUE(index.isReady(1));
  EXPECT_FALSE(index.isReady(2));
}

}  // namespace
}  // namespace laps
