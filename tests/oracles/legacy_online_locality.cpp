#include "oracles/legacy_online_locality.h"

#include <algorithm>

#include "oracles/legacy_locality_plan.h"
#include "util/error.h"

namespace laps {

LegacyOnlineLocalityScheduler::LegacyOnlineLocalityScheduler(
    OnlineLocalityOptions options)
    : options_(options) {
  options_.validate();
  check(options_.hopWeight == 0,
        "LegacyOnlineLocalityScheduler: the legacy loops are "
        "distance-blind (hopWeight must be 0)");
}

void LegacyOnlineLocalityScheduler::reset(const SchedContext& context) {
  check(context.graph != nullptr && context.sharing != nullptr,
        "LegacyOnlineLocalityScheduler: context incomplete");
  check(context.coreCount >= 1,
        "LegacyOnlineLocalityScheduler: need at least one core");
  graph_ = context.graph;
  sharing_ = context.sharing;
  coreCount_ = context.coreCount;
  const std::size_t n = graph_->processCount();

  LocalityOptions lsOptions;
  lsOptions.initialMinSharingRound = options_.initialMinSharingRound;

  open_ = false;
  arrived_.assign(n, false);
  exited_.assign(n, false);
  dispatched_.assign(n, false);
  anchor_.assign(coreCount_, std::nullopt);
  coreDown_.assign(coreCount_, false);
  downCount_ = 0;
  plan_ = buildLocalityPlanLegacy(*graph_, *sharing_, coreCount_, lsOptions);
  ready_.assign(n, false);
  readyCount_ = 0;
  patchesSinceRebuild_ = 0;
  rebuilds_ = 0;
  stats_ = PolicyStats{};
}

bool LegacyOnlineLocalityScheduler::live(ProcessId process) const {
  return (!open_ || arrived_[process]) && !exited_[process];
}

bool LegacyOnlineLocalityScheduler::consumePatchBudget() {
  if (options_.rebuildThreshold == 0) return true;
  if (++patchesSinceRebuild_ > options_.rebuildThreshold) return true;
  return false;
}

void LegacyOnlineLocalityScheduler::rebuild() {
  std::vector<ProcessId> liveSet;
  for (ProcessId p = 0; p < exited_.size(); ++p) {
    if (live(p) && !dispatched_[p]) liveSet.push_back(p);
  }
  LocalityPlan fresh;
  if (liveSet.empty()) {
    fresh.perCore.resize(coreCount_);
  } else {
    LocalityOptions lsOptions;
    lsOptions.initialMinSharingRound = options_.initialMinSharingRound;
    fresh = buildLocalityPlanLegacy(*graph_, *sharing_, coreCount_,
                                    lsOptions, liveSet);
  }
  plan_ = std::move(fresh);
  if (downCount_ > 0 && downCount_ < coreCount_) {
    for (std::size_t c = 0; c < coreCount_; ++c) {
      if (coreDown_[c]) evacuateCore(c);
    }
  }
  patchesSinceRebuild_ = 0;
  ++rebuilds_;
}

void LegacyOnlineLocalityScheduler::patchArrival(ProcessId process) {
  const bool skipDown = downCount_ > 0 && downCount_ < coreCount_;
  std::size_t bestCore = 0;
  std::int64_t bestSharing = -1;
  for (std::size_t c = 0; c < plan_.perCore.size(); ++c) {
    if (skipDown && coreDown_[c]) continue;
    std::int64_t s = 0;
    if (!plan_.perCore[c].empty()) {
      s = sharing_->at(plan_.perCore[c].back(), process);
    } else if (anchor_[c]) {
      s = sharing_->at(*anchor_[c], process);
    }
    if (s > bestSharing) {
      bestSharing = s;
      bestCore = c;
    }
  }
  plan_.perCore[bestCore].push_back(process);
}

void LegacyOnlineLocalityScheduler::patchExit(ProcessId process) {
  for (auto& order : plan_.perCore) {
    const auto it = std::find(order.begin(), order.end(), process);
    if (it != order.end()) {
      order.erase(it);
      return;
    }
  }
}

void LegacyOnlineLocalityScheduler::maybeBalance() {
  if (!options_.balancer.enabled) return;
  std::vector<bool> upMask;
  if (downCount_ > 0) {
    upMask.resize(coreCount_);
    for (std::size_t c = 0; c < coreCount_; ++c) upMask[c] = !coreDown_[c];
  }
  const std::vector<BalanceMove> moves = planBalanceMoves(
      plan_.perCore, *sharing_, anchor_, options_.balancer, upMask);
  for (const BalanceMove& move : moves) {
    auto& source = plan_.perCore[move.from];
    check(!source.empty() && source.back() == move.process,
          "LegacyOnlineLocalityScheduler: balance move does not match the "
          "source queue tail");
    source.pop_back();
    plan_.perCore[move.to].push_back(move.process);
  }
  stats_.offloads += moves.size();
}

void LegacyOnlineLocalityScheduler::evacuateCore(std::size_t core) {
  std::vector<ProcessId> orphans = std::move(plan_.perCore[core]);
  plan_.perCore[core].clear();
  if (orphans.empty()) return;
  std::vector<bool> upMask(coreCount_);
  for (std::size_t c = 0; c < coreCount_; ++c) upMask[c] = !coreDown_[c];
  const std::vector<std::size_t> targets = planOrphanReassignment(
      orphans, plan_.perCore, *sharing_, anchor_, upMask);
  for (std::size_t i = 0; i < orphans.size(); ++i) {
    plan_.perCore[targets[i]].push_back(orphans[i]);
  }
  stats_.offloads += orphans.size();
}

void LegacyOnlineLocalityScheduler::onCoreDown(std::size_t core) {
  check(core < coreCount_, "LegacyOnlineLocalityScheduler: unknown core");
  if (coreDown_[core]) return;
  coreDown_[core] = true;
  ++downCount_;
  anchor_[core].reset();
  evacuateCore(core);
}

void LegacyOnlineLocalityScheduler::onCoreUp(std::size_t core) {
  check(core < coreCount_, "LegacyOnlineLocalityScheduler: unknown core");
  if (!coreDown_[core]) return;
  coreDown_[core] = false;
  --downCount_;
}

void LegacyOnlineLocalityScheduler::onArrival(ProcessId process) {
  check(process < exited_.size(),
        "LegacyOnlineLocalityScheduler: unknown process");
  if (!open_) {
    open_ = true;
    plan_.perCore.assign(coreCount_, {});
    patchesSinceRebuild_ = 0;
  }
  const bool reentry = arrived_[process] && exited_[process];
  check(reentry || !arrived_[process],
        "LegacyOnlineLocalityScheduler: process arrived twice");
  arrived_[process] = true;
  exited_[process] = false;
  dispatched_[process] = false;
  if (consumePatchBudget()) {
    rebuild();
  } else {
    patchArrival(process);
    ++stats_.patches;
  }
  maybeBalance();
}

void LegacyOnlineLocalityScheduler::onExit(ProcessId process) {
  check(process < exited_.size(),
        "LegacyOnlineLocalityScheduler: unknown process");
  if (exited_[process]) return;
  exited_[process] = true;
  if (ready_[process]) {
    ready_[process] = false;
    --readyCount_;
  }
  if (!open_) return;
  if (consumePatchBudget()) {
    rebuild();
  } else {
    patchExit(process);
    ++stats_.patches;
  }
  maybeBalance();
}

void LegacyOnlineLocalityScheduler::onReady(ProcessId process) {
  check(process < exited_.size(),
        "LegacyOnlineLocalityScheduler: unknown process");
  check(live(process), "LegacyOnlineLocalityScheduler: ready process not live");
  if (!ready_[process]) {
    ready_[process] = true;
    ++readyCount_;
  }
}

void LegacyOnlineLocalityScheduler::onPreempt(ProcessId process) {
  check(process < exited_.size(),
        "LegacyOnlineLocalityScheduler: unknown process");
  if (dispatched_[process]) {
    dispatched_[process] = false;
    patchArrival(process);
  }
  onReady(process);
}

std::optional<ProcessId> LegacyOnlineLocalityScheduler::pickNext(
    std::size_t core, std::optional<ProcessId> previous) {
  check(core < coreCount_, "LegacyOnlineLocalityScheduler: unknown core");
  if (coreDown_[core]) return std::nullopt;
  if (readyCount_ == 0) return std::nullopt;

  const auto take = [&](ProcessId p) {
    ready_[p] = false;
    dispatched_[p] = true;
    anchor_[core] = p;
    --readyCount_;
    ++stats_.decisions;
    return p;
  };

  // Plan-guided dispatch: the first ready process remaining in this
  // core's plan.
  auto& order = plan_.perCore[core];
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (ready_[order[i]]) {
      const ProcessId planned = order[i];
      order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
      return take(planned);
    }
  }

  // Steal fallback: LS's online rule over the whole process universe.
  const std::optional<ProcessId> best =
      pickMaxSharing(ready_, *sharing_, previous);
  if (!best) return std::nullopt;
  patchExit(*best);
  ++stats_.steals;
  return take(*best);
}

PolicyStats LegacyOnlineLocalityScheduler::stats() const {
  PolicyStats out = stats_;
  out.rebuilds = rebuilds_;
  return out;
}

}  // namespace laps
