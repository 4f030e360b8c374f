#include "sched/plan_index.h"

#include "util/error.h"

namespace laps {

void PlanIndex::reset(const SharingMatrix& sharing, std::size_t n,
                      std::size_t coreCount) {
  check(coreCount >= 1, "PlanIndex: need at least one core");
  check(sharing.size() == n, "PlanIndex: sharing matrix size mismatch");
  sharing_ = &sharing;
  coreCount_ = coreCount;
  ready_.assign(n, false);
  readyList_.clear();
  readyCount_ = 0;
  score_ = nullptr;
  home_.assign(n, -1);
}

void PlanIndex::enableDistance(const LocalityScore* score) {
  score_ = score;
}

void PlanIndex::setHome(ProcessId process, std::optional<std::size_t> home) {
  check(process < home_.size(), "PlanIndex::setHome: unknown process");
  home_[process] = home ? static_cast<std::int32_t>(*home) : std::int32_t{-1};
}

std::optional<std::size_t> PlanIndex::homeOf(ProcessId process) const {
  check(process < home_.size(), "PlanIndex::homeOf: unknown process");
  if (home_[process] < 0) return std::nullopt;
  return static_cast<std::size_t>(home_[process]);
}

std::int64_t PlanIndex::keyFor(std::size_t core, ProcessId q,
                               const std::int64_t* row) const {
  const std::int64_t sharingTerm = row ? row[q] : 0;
  if (score_ == nullptr || !score_->distanceAware()) return sharingTerm;
  std::optional<std::size_t> home;
  if (home_[q] >= 0) home = static_cast<std::size_t>(home_[q]);
  return score_->key(sharingTerm, core, home);
}

void PlanIndex::beginPlanner(const ExtendedProcessGraph& graph,
                             const SharingMatrix& sharing,
                             std::size_t coreCount,
                             const std::vector<bool>& pending) {
  const std::size_t n = graph.processCount();
  check(pending.size() == n,
        "PlanIndex::beginPlanner: pending mask size mismatch");
  reset(sharing, n, coreCount);
  graph_ = &graph;
  pending_ = pending;
  indegree_.assign(n, 0);
  // Cached indegrees: a pending process waits only on pending
  // predecessors (a subset member not yet placed); predecessors outside
  // the subset — or already placed — are satisfied. This is the
  // schedulable() predicate of the legacy planner, evaluated once.
  for (ProcessId q = 0; q < n; ++q) {
    if (!pending_[q]) continue;
    std::uint32_t degree = 0;
    for (const ProcessId pred : graph.predecessors(q)) {
      if (pending_[pred]) ++degree;
    }
    indegree_[q] = degree;
    if (degree == 0) markReady(q);
  }
}

void PlanIndex::beginDispatch(const SharingMatrix& sharing, std::size_t n,
                              std::size_t coreCount) {
  reset(sharing, n, coreCount);
  graph_ = nullptr;
  pending_.clear();
  indegree_.clear();
}

void PlanIndex::markReady(ProcessId process) {
  check(process < ready_.size(), "PlanIndex::markReady: unknown process");
  if (ready_[process]) return;
  ready_[process] = true;
  ++readyCount_;
  readyList_.push_back(process);
}

void PlanIndex::markUnready(ProcessId process) {
  check(process < ready_.size(), "PlanIndex::markUnready: unknown process");
  if (!ready_[process]) return;
  ready_[process] = false;
  --readyCount_;
  if (readyList_.size() > 2 * readyCount_ + 64) compactReadyList();
}

bool PlanIndex::isReady(ProcessId process) const {
  check(process < ready_.size(), "PlanIndex::isReady: unknown process");
  return ready_[process];
}

void PlanIndex::compactReadyList() {
  std::erase_if(readyList_,
                [&](ProcessId p) { return !ready_[p]; });
}

std::optional<ProcessId> PlanIndex::popBest(std::size_t core,
                                            std::optional<ProcessId> anchor) {
  check(core < coreCount_, "PlanIndex: unknown core");
  // Anchorless, every distance-blind key is 0 and the argmax degenerates
  // to the smallest ready id; distance-aware, keys are pure hop
  // penalties and the nearest home wins.
  const std::int64_t* row = nullptr;
  if (anchor) row = sharing_->row(*anchor).data();
  std::optional<ProcessId> best;
  std::int64_t bestKey = 0;
  for (const ProcessId q : readyList_) {
    if (!ready_[q]) continue;
    const std::int64_t key = keyFor(core, q, row);
    if (!best || key > bestKey || (key == bestKey && q < *best)) {
      best = q;
      bestKey = key;
    }
  }
  if (best) markUnready(*best);
  return best;
}

void PlanIndex::place(ProcessId process) {
  check(graph_ != nullptr, "PlanIndex::place: not in planner mode");
  check(process < pending_.size(), "PlanIndex::place: unknown process");
  pending_[process] = false;
  for (const ProcessId succ : graph_->successors(process)) {
    if (!pending_[succ]) continue;
    check(indegree_[succ] > 0, "PlanIndex::place: indegree accounting");
    if (--indegree_[succ] == 0) markReady(succ);
  }
}

}  // namespace laps
