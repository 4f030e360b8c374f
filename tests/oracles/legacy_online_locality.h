#pragma once
/// \file legacy_online_locality.h
/// \brief Reference implementation of OnlineLocalityScheduler (OLS):
/// the replanning loops exactly as first written, before the PlanIndex
/// core and the tombstone queues.
///
/// Same events, same decisions, pre-index costs: rebuilds run
/// buildLocalityPlanLegacy, the plan is a plain vector per core
/// (std::find exits, erase-on-dispatch), and steals scan the whole
/// process universe with pickMaxSharing. It is the differential oracle
/// OLS is tested against (tests/sched/online_locality_test.cpp,
/// load_balancer_test.cpp) and the honest baseline arm OLS-old of
/// bench_policy_overhead, whose checksum column pins that both make
/// the same dispatch sequence.
///
/// Distance-blind only: the loops never learned hop arithmetic, so a
/// non-zero OnlineLocalityOptions::hopWeight is rejected.

#include <cstdint>
#include <vector>

#include "sched/online_locality.h"

namespace laps {

/// OLS over the legacy plan representation (see file comment).
class LegacyOnlineLocalityScheduler final : public SchedulerPolicy {
 public:
  /// Throws laps::Error on invalid options or a non-zero hopWeight.
  explicit LegacyOnlineLocalityScheduler(OnlineLocalityOptions options = {});

  void reset(const SchedContext& context) override;
  void onArrival(ProcessId process) override;
  void onExit(ProcessId process) override;
  void onReady(ProcessId process) override;
  void onPreempt(ProcessId process) override;
  void onCoreDown(std::size_t core) override;
  void onCoreUp(std::size_t core) override;
  std::optional<ProcessId> pickNext(std::size_t core,
                                    std::optional<ProcessId> previous) override;
  [[nodiscard]] std::string name() const override { return "OLS"; }
  [[nodiscard]] std::optional<std::int64_t> quantum() const override {
    if (options_.quantumCycles > 0) return options_.quantumCycles;
    return std::nullopt;
  }

  /// The current (patched or rebuilt) plan: the pending work per core.
  [[nodiscard]] const LocalityPlan& plan() const { return plan_; }
  [[nodiscard]] PolicyStats stats() const override;

 private:
  [[nodiscard]] bool live(ProcessId process) const;
  void rebuild();
  void patchArrival(ProcessId process);
  void patchExit(ProcessId process);
  [[nodiscard]] bool consumePatchBudget();
  void maybeBalance();
  void evacuateCore(std::size_t core);

  OnlineLocalityOptions options_;
  const ExtendedProcessGraph* graph_ = nullptr;
  const SharingMatrix* sharing_ = nullptr;
  std::size_t coreCount_ = 0;
  LocalityPlan plan_;
  bool open_ = false;
  std::vector<bool> arrived_;
  std::vector<bool> exited_;
  std::vector<bool> dispatched_;
  std::vector<std::optional<ProcessId>> anchor_;
  std::vector<bool> coreDown_;
  std::size_t downCount_ = 0;
  std::vector<bool> ready_;
  std::size_t readyCount_ = 0;
  std::int64_t patchesSinceRebuild_ = 0;
  std::size_t rebuilds_ = 0;
  PolicyStats stats_;
};

}  // namespace laps
