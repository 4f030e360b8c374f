#pragma once
/// \file legacy_locality_plan.h
/// \brief Reference implementation of buildLocalityPlan: the Fig. 3
/// loops exactly as first written, before the indexed planner core.
///
/// O(|IN|³) trim, full candidate rescans with a predecessor walk per
/// candidate. It is the differential oracle the library planner is
/// tested against (tests/sched/plan_index_test.cpp,
/// locality_score_test.cpp), the planner inside
/// LegacyOnlineLocalityScheduler, and the baseline arm of
/// BM_LocalityPlanLegacy / BM_LocalityPlanLargeLegacy in bench_micro.

#include <span>

#include "sched/locality.h"

namespace laps {

/// Same contract as buildLocalityPlan (sched/locality.h), same plan
/// element for element, pre-index costs.
[[nodiscard]] LocalityPlan buildLocalityPlanLegacy(
    const ExtendedProcessGraph& graph, const SharingMatrix& sharing,
    std::size_t coreCount, const LocalityOptions& options = {},
    std::span<const ProcessId> subset = {});

}  // namespace laps
