#include "sched/dynamic_locality.h"

#include <algorithm>
#include <cmath>

#include "layout/address_space.h"
#include "layout/conflict.h"
#include "util/error.h"

namespace laps {

void L2ContentionOptions::validate() const {
  check(std::isfinite(conflictWeight) && conflictWeight >= 0.0,
        "L2ContentionOptions: conflictWeight must be finite and >= 0");
  l2Geometry.validate();
}

void DynamicLocalityScheduler::reset(const SchedContext& context) {
  check(context.sharing != nullptr, "DynamicLocalityScheduler: sharing required");
  score_.configure(context.sharing, context.topology);
  ready_.clear();
  aging_.reset(context.sharing->size());
}

void DynamicLocalityScheduler::onReady(ProcessId process) {
  ready_.push_back(process);
}

void DynamicLocalityScheduler::onArrival(ProcessId process) {
  aging_.stamp(process);
}

void DynamicLocalityScheduler::onExit(ProcessId process) {
  const auto it = std::find(ready_.begin(), ready_.end(), process);
  if (it != ready_.end()) ready_.erase(it);
}

std::optional<ProcessId> DynamicLocalityScheduler::pickNext(
    std::size_t /*core*/, std::optional<ProcessId> previous) {
  if (ready_.empty()) return std::nullopt;
  std::size_t bestIdx = 0;
  if (previous) {
    std::int64_t bestSharing = -1;
    std::int64_t bestSeq = -1;
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      const std::int64_t s = score_.sharing(previous, ready_[i]);
      const std::int64_t seq = aging_.seqOf(ready_[i]);
      // Equal sharing: ArrivalAging decides (earliest arrival in open
      // workloads, plain ready-order FIFO in closed ones).
      const bool better =
          s > bestSharing ||
          (s == bestSharing && ArrivalAging::beatsTie(seq, bestSeq));
      if (better) {
        bestSharing = s;
        bestSeq = seq;
        bestIdx = i;
      }
    }
  }
  const ProcessId chosen = ready_[bestIdx];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(bestIdx));
  return chosen;
}

L2ContentionAwareScheduler::L2ContentionAwareScheduler(
    L2ContentionOptions options)
    : options_(std::move(options)) {
  options_.validate();
}

void L2ContentionAwareScheduler::reset(const SchedContext& context) {
  check(context.sharing != nullptr,
        "L2ContentionAwareScheduler: sharing required");
  check(context.coreCount >= 1,
        "L2ContentionAwareScheduler: need at least one core");
  check(context.workload != nullptr && context.space != nullptr,
        "L2ContentionAwareScheduler: workload and address space required "
        "(footprint conflict analysis)");
  score_.configure(context.sharing, context.topology);
  ready_.clear();
  runningOn_.assign(context.coreCount, std::nullopt);
  aging_.reset(context.sharing->size());

  // Per-process line occupancy over the shared L2's set space, through
  // the live address layout: summed densely per process, kept sparse.
  const std::vector<Footprint> footprints = context.workload->footprints();
  const auto sets =
      static_cast<std::size_t>(options_.l2Geometry.numSets());
  runningOccupancy_.assign(sets, 0);
  occupancy_.clear();
  rowStart_.assign(1, 0);
  std::vector<std::int64_t> dense(sets, 0);
  for (const Footprint& fp : footprints) {
    for (const auto& [array, elements] : fp.perArray()) {
      const std::vector<std::int64_t> one = setOccupancy(
          context.space->byteIntervals(array, elements), options_.l2Geometry);
      for (std::size_t s = 0; s < sets; ++s) dense[s] += one[s];
    }
    for (std::size_t s = 0; s < sets; ++s) {
      if (dense[s] != 0) occupancy_.push_back(SetLines{s, dense[s]});
      dense[s] = 0;
    }
    rowStart_.push_back(occupancy_.size());
  }
}

std::span<const L2ContentionAwareScheduler::SetLines>
L2ContentionAwareScheduler::row(ProcessId process) const {
  return std::span<const SetLines>(occupancy_)
      .subspan(rowStart_[process], rowStart_[process + 1] - rowStart_[process]);
}

std::int64_t L2ContentionAwareScheduler::conflictBetween(ProcessId a,
                                                         ProcessId b) const {
  check(a + 1 < rowStart_.size() && b + 1 < rowStart_.size(),
        "L2ContentionAwareScheduler: unknown process");
  // Merge of two set-ordered sparse rows: co-mapped line pairs per set.
  const auto occA = row(a);
  const auto occB = row(b);
  std::int64_t conflicts = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < occA.size() && j < occB.size()) {
    if (occA[i].set < occB[j].set) {
      ++i;
    } else if (occB[j].set < occA[i].set) {
      ++j;
    } else {
      conflicts += occA[i++].lines * occB[j++].lines;
    }
  }
  return conflicts;
}

void L2ContentionAwareScheduler::accumulate(ProcessId process,
                                            std::int64_t sign) {
  for (const SetLines& entry : row(process)) {
    runningOccupancy_[entry.set] += sign * entry.lines;
  }
}

std::int64_t L2ContentionAwareScheduler::conflictsWithRunning(
    ProcessId candidate) const {
  // Sum over running p of dot(occ[candidate], occ[p]) =
  // dot(occ[candidate], Sum over running p of occ[p]): the same int64
  // value the per-pair sum gives, in O(nonzero sets of the candidate).
  std::int64_t conflicts = 0;
  for (const SetLines& entry : row(candidate)) {
    conflicts += entry.lines * runningOccupancy_[entry.set];
  }
  return conflicts;
}

void L2ContentionAwareScheduler::onReady(ProcessId process) {
  // Every row() index below comes from a ready entry.
  check(process + 1 < rowStart_.size(),
        "L2ContentionAwareScheduler: unknown process");
  ready_.push_back(process);
}

std::optional<ProcessId> L2ContentionAwareScheduler::pickNext(
    std::size_t core, std::optional<ProcessId> previous) {
  check(core < runningOn_.size(), "L2ContentionAwareScheduler: unknown core");
  if (ready_.empty()) return std::nullopt;
  // The picking core's own slot is about to be overwritten, so whatever
  // it still holds never penalizes the candidates: leave it out of the
  // running set before scoring.
  if (runningOn_[core]) {
    accumulate(*runningOn_[core], -1);
    runningOn_[core].reset();
  }
  // Scoring in double is exact, hence platform-identical: every operand
  // is an integer count far below 2^53 (converted exactly), and with the
  // default conflictWeight of 1.0 every product and difference stays
  // integer-valued. A non-default weight keeps determinism as long as
  // each operation is a single correctly-rounded IEEE op, which it is —
  // the conflict counts are summed exactly in integers first, then
  // combined once by LocalityScore::contendedScore.
  std::size_t bestIdx = 0;
  double bestScore = 0.0;  // LINT-ALLOW(no-float): exact integer-valued score, see note above
  std::int64_t bestSeq = -1;
  bool haveBest = false;
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    const ProcessId candidate = ready_[i];
    // LINT-ALLOW(no-float): exact integer-valued score, see note above
    const double score = LocalityScore::contendedScore(
        score_.sharing(previous, candidate), options_.conflictWeight,
        conflictsWithRunning(candidate));
    const std::int64_t seq = aging_.seqOf(candidate);
    // Equal score: ArrivalAging decides (earliest arrival in open
    // workloads, plain ready-order FIFO in closed ones).
    const bool better =
        !haveBest || score > bestScore ||
        (score == bestScore && ArrivalAging::beatsTie(seq, bestSeq));
    if (better) {
      haveBest = true;
      bestScore = score;
      bestSeq = seq;
      bestIdx = i;
    }
  }
  const ProcessId chosen = ready_[bestIdx];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(bestIdx));
  runningOn_[core] = chosen;
  accumulate(chosen, +1);
  return chosen;
}

void L2ContentionAwareScheduler::stopRunning(ProcessId process) {
  for (auto& slot : runningOn_) {
    if (slot == std::optional<ProcessId>{process}) {
      slot.reset();
      accumulate(process, -1);
    }
  }
}

void L2ContentionAwareScheduler::onPreempt(ProcessId process) {
  stopRunning(process);
  onReady(process);
}

void L2ContentionAwareScheduler::onComplete(ProcessId process) {
  stopRunning(process);
}

void L2ContentionAwareScheduler::onArrival(ProcessId process) {
  aging_.stamp(process);
}

void L2ContentionAwareScheduler::onExit(ProcessId process) {
  // A retired process may have been running (no onComplete fires for a
  // retirement): it stops occupying the shared L2 either way. Drop any
  // stale ready entry too.
  stopRunning(process);
  const auto it = std::find(ready_.begin(), ready_.end(), process);
  if (it != ready_.end()) ready_.erase(it);
}

}  // namespace laps
