#pragma once
/// \file dynamic_locality.h
/// \brief Online greedy locality scheduling (extension).
///
/// The paper's LS builds a static plan before execution (paper §6 notes
/// an embedded-Linux implementation as future work). This policy is the
/// online analogue an OS would run: at every core-idle event it picks,
/// among the processes that are ready *right now*, the one sharing the
/// most data with whatever that core ran last. There is no initial
/// min-sharing round and no global plan, so it adapts to actual
/// completion order at the cost of a weaker global view — the ablation
/// bench quantifies the difference against static LS.

#include <cstdint>
#include <span>
#include <vector>

#include "cache/config.h"
#include "sched/locality_score.h"
#include "sched/scheduler.h"
#include "util/error.h"

namespace laps {

/// Arrival stamps and the aging tie-break shared by the dynamic
/// policies (DLS, CALS): in open workloads, equal-score candidates fall
/// to the earliest-arrived process instead of plain ready order — a
/// preempted old process ages ahead of fresh arrivals nobody shares
/// with (starvation resistance under churn). In closed workloads no
/// arrival ever fires, every stamp stays unknown (-1), and beatsTie is
/// always false — the original FIFO tie-break, bit-identical.
class ArrivalAging {
 public:
  void reset(std::size_t processCount) {
    seq_.assign(processCount, -1);
    next_ = 0;
  }

  void stamp(ProcessId process) {
    check(process < seq_.size(), "ArrivalAging: unknown process");
    seq_[process] = next_++;
  }

  [[nodiscard]] std::int64_t seqOf(ProcessId process) const {
    return seq_[process];
  }

  /// True when, at equal score, the candidate stamped \p seq should
  /// displace the incumbent stamped \p bestSeq.
  [[nodiscard]] static bool beatsTie(std::int64_t seq, std::int64_t bestSeq) {
    return seq >= 0 && bestSeq >= 0 && seq < bestSeq;
  }

 private:
  std::vector<std::int64_t> seq_;  // -1 = unknown (closed mode)
  std::int64_t next_ = 0;
};

/// Online greedy locality policy (see file comment).
///
/// Open workloads: onArrival stamps the process for the ArrivalAging
/// tie-break (see above); onExit drops any stale queue entry for the
/// leaving process.
class DynamicLocalityScheduler final : public SchedulerPolicy {
 public:
  void reset(const SchedContext& context) override;
  void onReady(ProcessId process) override;
  void onArrival(ProcessId process) override;
  void onExit(ProcessId process) override;
  std::optional<ProcessId> pickNext(std::size_t core,
                                    std::optional<ProcessId> previous) override;
  [[nodiscard]] std::string name() const override { return "DLS"; }
  [[nodiscard]] const LocalityScore* localityScore() const override {
    return &score_;
  }

 private:
  std::vector<ProcessId> ready_;
  LocalityScore score_;  ///< the one scoring arithmetic (sharing term)
  ArrivalAging aging_;
};

/// Tunables of L2ContentionAwareScheduler.
struct L2ContentionOptions {
  /// Set space the conflict analysis indexes footprints into — the
  /// shared L2 viewed as one cache (SharedL2Config::aggregateConfig()).
  CacheConfig l2Geometry{256 * 1024, 8, 32, 8};
  /// Weight of a conflicting co-mapped line pair against one shared
  /// element when scoring a candidate (>= 0; 0 degenerates to DLS).
  /// The default 1.0 keeps every score exactly integer-valued (see the
  /// scoring note in dynamic_locality.cpp).
  // LINT-ALLOW(no-float): validated finite config knob; scoring stays exact, see pickNext
  double conflictWeight = 1.0;

  /// Throws laps::Error on a non-finite or negative weight or an
  /// inconsistent geometry. The single source of these constraints:
  /// both the scheduler's constructor and makeScheduler enforce it.
  void validate() const;
};

/// The contention-aware variant of DynamicLocalityScheduler: same online
/// greedy rule — maximize sharing with what this core ran last — minus a
/// penalty for conflicting in the *shared* L2 with the processes running
/// on the other cores right now. Two processes conflict to the degree
/// their footprints co-map into the same L2 sets (the per-process analogue
/// of layout/conflict.h's array matrix): co-scheduling them thrashes the
/// shared cache even though they share nothing, which is exactly the
/// regime the contention ablation (bench_ablation) measures.
///
/// Conflicts are linear in the running set: the policy keeps one
/// aggregate occupancy vector over the L2 sets for the processes
/// running now, updated at each dispatch and stop, and scores a
/// candidate with one dot product over its nonzero sets. The pairwise
/// form it replaces is the differential oracle
/// LegacyL2ContentionAwareScheduler (tests/oracles/).
///
/// Requires SchedContext::workload and ::space (footprints are indexed
/// through the live address layout, so LSM re-layouts shift the
/// conflict structure the policy sees).
class L2ContentionAwareScheduler final : public SchedulerPolicy {
 public:
  explicit L2ContentionAwareScheduler(L2ContentionOptions options = {});

  void reset(const SchedContext& context) override;
  void onReady(ProcessId process) override;
  std::optional<ProcessId> pickNext(std::size_t core,
                                    std::optional<ProcessId> previous) override;
  void onPreempt(ProcessId process) override;
  void onComplete(ProcessId process) override;
  void onArrival(ProcessId process) override;
  void onExit(ProcessId process) override;
  [[nodiscard]] std::string name() const override { return "CALS"; }

  /// Co-mapped L2 line pairs of two processes' footprints: the dot
  /// product of their set occupancies (exposed for tests; computed on
  /// each call, O(nonzero sets of both)).
  [[nodiscard]] std::int64_t conflictBetween(ProcessId a, ProcessId b) const;

  [[nodiscard]] const LocalityScore* localityScore() const override {
    return &score_;
  }

 private:
  /// Lines a footprint maps into one L2 set.
  struct SetLines {
    std::size_t set = 0;
    std::int64_t lines = 0;
  };

  /// \p process's nonzero sets, in ascending set order.
  [[nodiscard]] std::span<const SetLines> row(ProcessId process) const;
  void stopRunning(ProcessId process);
  /// Adds \p sign x \p process's occupancy to runningOccupancy_.
  void accumulate(ProcessId process, std::int64_t sign);
  /// Co-mapped line pairs of \p candidate with every running process.
  [[nodiscard]] std::int64_t conflictsWithRunning(ProcessId candidate) const;

  L2ContentionOptions options_;
  LocalityScore score_;  ///< the one scoring arithmetic (sharing+conflict)
  std::vector<ProcessId> ready_;
  /// Per-process line occupancy of the L2 set space, sparse and
  /// flattened: process p's row is occupancy_[rowStart_[p],
  /// rowStart_[p + 1]). One buffer rather than a heap block per
  /// process keeps the peak RSS of a process that runs many
  /// experiments steady.
  std::vector<SetLines> occupancy_;
  std::vector<std::size_t> rowStart_;
  /// runningOn_[core] = process currently executing there.
  std::vector<std::optional<ProcessId>> runningOn_;
  /// Sum of occupancy_ over the runningOn_ slots, dense over the sets
  /// (the running-set aggregate of the class comment).
  std::vector<std::int64_t> runningOccupancy_;
  ArrivalAging aging_;  // open-workload tie-break (see ArrivalAging)
};

}  // namespace laps
