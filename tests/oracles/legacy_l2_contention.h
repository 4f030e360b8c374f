#pragma once
/// \file legacy_l2_contention.h
/// \brief Reference implementation of L2ContentionAwareScheduler (CALS):
/// the pairwise conflict loop exactly as first written, before the
/// running-set occupancy aggregate.
///
/// Same events, same decisions, pre-aggregate costs: a dense n x sets
/// occupancy table, and for every ready candidate one memoized pairwise
/// conflict per running core other than the picking one. It is the
/// differential oracle CALS is tested against
/// (tests/sched/contention_differential_test.cpp).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sched/dynamic_locality.h"

namespace laps {

/// CALS over the legacy pairwise conflict memo (see file comment).
class LegacyL2ContentionAwareScheduler final : public SchedulerPolicy {
 public:
  explicit LegacyL2ContentionAwareScheduler(L2ContentionOptions options = {});

  void reset(const SchedContext& context) override;
  void onReady(ProcessId process) override;
  std::optional<ProcessId> pickNext(std::size_t core,
                                    std::optional<ProcessId> previous) override;
  void onPreempt(ProcessId process) override;
  void onComplete(ProcessId process) override;
  void onArrival(ProcessId process) override;
  void onExit(ProcessId process) override;
  [[nodiscard]] std::string name() const override { return "CALS"; }

  /// Co-mapped L2 line pairs of two processes' footprints (lazily
  /// computed and memoized).
  [[nodiscard]] std::int64_t conflictBetween(ProcessId a, ProcessId b);

  [[nodiscard]] const LocalityScore* localityScore() const override {
    return &score_;
  }

 private:
  void stopRunning(ProcessId process);

  L2ContentionOptions options_;
  LocalityScore score_;
  std::vector<ProcessId> ready_;
  /// Per-process line occupancy of the L2 set space (n x numSets).
  std::vector<std::vector<std::int64_t>> occupancy_;
  /// Memoized pairwise conflict scores, keyed min(a,b) * n + max(a,b).
  /// Lookup-only (find/emplace on a symmetric key, never iterated).
  // LINT-ALLOW(unordered-container): find/emplace only, never iterated; the key is order-insensitive
  std::unordered_map<std::uint64_t, std::int64_t> conflictMemo_;
  /// runningOn_[core] = process currently executing there.
  std::vector<std::optional<ProcessId>> runningOn_;
  ArrivalAging aging_;
};

}  // namespace laps
