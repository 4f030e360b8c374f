#pragma once
/// \file spans.h
/// \brief In-memory span recorder and the forwarding SchedulerPolicy
///        wrapper the traced benchmark run uses.
///
/// A span is one timed call into a layer: its kind (which names the
/// call and its layer), the span that was open when it started (its
/// parent), and steady-clock start/end in nanoseconds. Spans are kept in
/// a vector for the whole run and written out once it ends. A layer's
/// self time is the sum over its spans of duration minus the part of
/// that interval covered by child spans.
///
/// Every recording entry point takes a nullable recorder: with no
/// recorder (the untraced run) a Scope reads no clock and stores
/// nothing.

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sched/scheduler.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  Batch,
  Experiment,
  WorkloadGen,
  Validate,
  Footprints,
  SharingBuild,
  AddressSpace,
  Plan,
  Conflict,
  Relayout,
  MakeScheduler,
  SimConstruct,
  SimRun,
  Energy,
  // Policy callbacks, one per SchedulerPolicy virtual.
  Reset,
  OnReady,
  PickNext,
  OnPreempt,
  OnComplete,
  OnArrival,
  OnExit,
  OnCoreDown,
  OnCoreUp,
  Quantum,
  Stats,
  LocalityScoreQuery,
  Name,
  Count,
};

inline constexpr std::size_t kSpanKindCount =
    static_cast<std::size_t>(SpanKind::Count);

/// Span name as written to the span file; the prefix is the layer (a
/// module of src/, or "bench" for the benchmark's own grouping spans).
inline constexpr std::array<std::string_view, kSpanKindCount> kSpanNames{
    "bench.batch",          "bench.experiment",     "workloads.generate",
    "taskgraph.validate",   "region.footprints",    "region.sharing_build",
    "layout.address_space", "sched.plan",           "layout.conflict",
    "layout.relayout",      "sched.make_scheduler", "sim.construct",
    "sim.run",              "sim.energy",           "sched.reset",
    "sched.onReady",        "sched.pickNext",       "sched.onPreempt",
    "sched.onComplete",     "sched.onArrival",      "sched.onExit",
    "sched.onCoreDown",     "sched.onCoreUp",       "sched.quantum",
    "sched.stats",          "sched.localityScore",  "sched.name",
};

[[nodiscard]] constexpr bool isPolicyCallback(SpanKind kind) {
  return kind >= SpanKind::Reset && kind < SpanKind::Count;
}

struct Span {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint32_t parent = 0;  ///< index + 1 of the parent span; 0 = root
  SpanKind kind = SpanKind::Batch;
  bool emptyResult = false;  ///< pickNext returned no process
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  std::size_t open(SpanKind kind) {
    Span span;
    span.kind = kind;
    span.parent = stack_.empty() ? 0 : static_cast<std::uint32_t>(stack_.back() + 1);
    span.startNs = nowNs();
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id, bool emptyResult = false) {
    spans_[id].endNs = nowNs();
    spans_[id].emptyResult = emptyResult;
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Self time per span kind, in seconds, over every recorded span.
  [[nodiscard]] std::array<double, kSpanKindCount> selfSeconds() const {
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) childNs[s.parent - 1] += s.endNs - s.startNs;
    }
    std::array<double, kSpanKindCount> self{};
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[static_cast<std::size_t>(s.kind)] +=
          static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-9;
    }
    return self;
  }

  /// One line per span: id,parent,name,start_ns,end_ns,empty.
  void write(std::ostream& out) const {
    out << "id,parent,name,start_ns,end_ns,empty\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i + 1 << ',' << s.parent << ','
          << kSpanNames[static_cast<std::size_t>(s.kind)] << ',' << s.startNs
          << ',' << s.endNs << ',' << (s.emptyResult ? 1 : 0) << '\n';
    }
  }

 private:
  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< open spans, innermost last
};

/// RAII span; a no-op without a recorder.
class Scope {
 public:
  Scope(SpanRecorder* recorder, SpanKind kind) : recorder_(recorder) {
    if (recorder_ != nullptr) id_ = recorder_->open(kind);
  }
  ~Scope() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t id_ = 0;
};

/// One onArrival/onExit the engine made, in call order. The engine
/// updates its live sharing matrix next to each (addProcess before
/// onArrival, removeProcess after onExit), so replaying this log through
/// SharingMatrix reproduces exactly that matrix work.
struct LiveEvent {
  laps::ProcessId process = 0;
  bool arrival = false;
};

/// Forwards every SchedulerPolicy virtual to \p inner, recording one
/// span per call and logging the arrival/exit order. Forwarding
/// onPreempt explicitly (rather than inheriting the default, which calls
/// this->onReady) keeps the inner policy's own override in charge.
class TracedPolicy final : public laps::SchedulerPolicy {
 public:
  TracedPolicy(laps::SchedulerPolicy& inner, SpanRecorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}

  void reset(const laps::SchedContext& context) override {
    const Scope s(recorder_, SpanKind::Reset);
    inner_->reset(context);
  }
  void onReady(laps::ProcessId process) override {
    const Scope s(recorder_, SpanKind::OnReady);
    inner_->onReady(process);
  }
  std::optional<laps::ProcessId> pickNext(
      std::size_t core, std::optional<laps::ProcessId> previous) override {
    const std::size_t id = recorder_->open(SpanKind::PickNext);
    const std::optional<laps::ProcessId> next = inner_->pickNext(core, previous);
    recorder_->close(id, !next.has_value());
    return next;
  }
  void onPreempt(laps::ProcessId process) override {
    const Scope s(recorder_, SpanKind::OnPreempt);
    inner_->onPreempt(process);
  }
  void onComplete(laps::ProcessId process) override {
    const Scope s(recorder_, SpanKind::OnComplete);
    inner_->onComplete(process);
  }
  void onArrival(laps::ProcessId process) override {
    liveEvents_.push_back({process, true});
    const Scope s(recorder_, SpanKind::OnArrival);
    inner_->onArrival(process);
  }
  void onExit(laps::ProcessId process) override {
    liveEvents_.push_back({process, false});
    const Scope s(recorder_, SpanKind::OnExit);
    inner_->onExit(process);
  }
  void onCoreDown(std::size_t core) override {
    const Scope s(recorder_, SpanKind::OnCoreDown);
    inner_->onCoreDown(core);
  }
  void onCoreUp(std::size_t core) override {
    const Scope s(recorder_, SpanKind::OnCoreUp);
    inner_->onCoreUp(core);
  }
  [[nodiscard]] std::optional<std::int64_t> quantum() const override {
    const Scope s(recorder_, SpanKind::Quantum);
    return inner_->quantum();
  }
  [[nodiscard]] laps::PolicyStats stats() const override {
    const Scope s(recorder_, SpanKind::Stats);
    return inner_->stats();
  }
  [[nodiscard]] const laps::LocalityScore* localityScore() const override {
    const Scope s(recorder_, SpanKind::LocalityScoreQuery);
    return inner_->localityScore();
  }
  [[nodiscard]] std::string name() const override {
    const Scope s(recorder_, SpanKind::Name);
    return inner_->name();
  }

  [[nodiscard]] const std::vector<LiveEvent>& liveEvents() const {
    return liveEvents_;
  }

 private:
  laps::SchedulerPolicy* inner_;
  SpanRecorder* recorder_;
  std::vector<LiveEvent> liveEvents_;
};

}  // namespace perfbench
