#include "oracles/legacy_l2_contention.h"

#include <algorithm>

#include "layout/address_space.h"
#include "layout/conflict.h"
#include "util/error.h"

namespace laps {

LegacyL2ContentionAwareScheduler::LegacyL2ContentionAwareScheduler(
    L2ContentionOptions options)
    : options_(std::move(options)) {
  options_.validate();
}

void LegacyL2ContentionAwareScheduler::reset(const SchedContext& context) {
  check(context.sharing != nullptr,
        "LegacyL2ContentionAwareScheduler: sharing required");
  check(context.coreCount >= 1,
        "LegacyL2ContentionAwareScheduler: need at least one core");
  check(context.workload != nullptr && context.space != nullptr,
        "LegacyL2ContentionAwareScheduler: workload and address space "
        "required");
  score_.configure(context.sharing, context.topology);
  ready_.clear();
  conflictMemo_.clear();
  runningOn_.assign(context.coreCount, std::nullopt);
  aging_.reset(context.sharing->size());

  const std::vector<Footprint> footprints = context.workload->footprints();
  occupancy_.clear();
  occupancy_.reserve(footprints.size());
  const auto sets =
      static_cast<std::size_t>(options_.l2Geometry.numSets());
  for (const Footprint& fp : footprints) {
    std::vector<std::int64_t> occ(sets, 0);
    for (const auto& [array, elements] : fp.perArray()) {
      const std::vector<std::int64_t> one = setOccupancy(
          context.space->byteIntervals(array, elements), options_.l2Geometry);
      for (std::size_t s = 0; s < sets; ++s) occ[s] += one[s];
    }
    occupancy_.push_back(std::move(occ));
  }
}

std::int64_t LegacyL2ContentionAwareScheduler::conflictBetween(ProcessId a,
                                                               ProcessId b) {
  check(a < occupancy_.size() && b < occupancy_.size(),
        "LegacyL2ContentionAwareScheduler: unknown process");
  const std::uint64_t key =
      static_cast<std::uint64_t>(std::min(a, b)) * occupancy_.size() +
      std::max(a, b);
  const auto it = conflictMemo_.find(key);
  if (it != conflictMemo_.end()) return it->second;
  std::int64_t conflicts = 0;
  const auto& occA = occupancy_[a];
  const auto& occB = occupancy_[b];
  for (std::size_t s = 0; s < occA.size(); ++s) {
    conflicts += occA[s] * occB[s];
  }
  conflictMemo_.emplace(key, conflicts);
  return conflicts;
}

void LegacyL2ContentionAwareScheduler::onReady(ProcessId process) {
  ready_.push_back(process);
}

std::optional<ProcessId> LegacyL2ContentionAwareScheduler::pickNext(
    std::size_t core, std::optional<ProcessId> previous) {
  check(core < runningOn_.size(),
        "LegacyL2ContentionAwareScheduler: unknown core");
  if (ready_.empty()) return std::nullopt;
  std::size_t bestIdx = 0;
  double bestScore = 0.0;
  std::int64_t bestSeq = -1;
  bool haveBest = false;
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    const ProcessId candidate = ready_[i];
    std::int64_t conflicts = 0;
    for (std::size_t c = 0; c < runningOn_.size(); ++c) {
      if (c == core || !runningOn_[c]) continue;
      conflicts += conflictBetween(candidate, *runningOn_[c]);
    }
    const double score = LocalityScore::contendedScore(
        score_.sharing(previous, candidate), options_.conflictWeight,
        conflicts);
    const std::int64_t seq = aging_.seqOf(candidate);
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
  return chosen;
}

void LegacyL2ContentionAwareScheduler::stopRunning(ProcessId process) {
  for (auto& slot : runningOn_) {
    if (slot == std::optional<ProcessId>{process}) slot.reset();
  }
}

void LegacyL2ContentionAwareScheduler::onPreempt(ProcessId process) {
  stopRunning(process);
  onReady(process);
}

void LegacyL2ContentionAwareScheduler::onComplete(ProcessId process) {
  stopRunning(process);
}

void LegacyL2ContentionAwareScheduler::onArrival(ProcessId process) {
  aging_.stamp(process);
}

void LegacyL2ContentionAwareScheduler::onExit(ProcessId process) {
  stopRunning(process);
  const auto it = std::find(ready_.begin(), ready_.end(), process);
  if (it != ready_.end()) ready_.erase(it);
}

}  // namespace laps
