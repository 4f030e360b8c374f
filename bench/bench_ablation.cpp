/// \file bench_ablation.cpp
/// \brief Ablations of the design choices the design notes of
/// docs/ARCHITECTURE.md (§§5-7) call out:
///   (a) LS's initial min-sharing round on/off (Fig. 3 lines 3-6);
///   (b) online greedy LS vs rigid static-plan execution;
///   (c) RRS quantum sweep (preemption cost vs load balance);
///   (d) cache flush-on-switch (how much of LS's win is cache
///       persistence across context switches);
///   (e) re-layout threshold T sweep around the paper's mean heuristic;
///   (f) the extension schedulers (FCFS, SJF, critical-path, online DLS)
///       against the paper's four;
///   (g) the memory-hierarchy contention sweep: shared-L2 size x bus
///       width x |T| under RS/RRS/LS/LSM/CALS — does the LS win survive
///       contention, and does LSM's margin grow as the bus saturates?
///
/// With --csv only the (g) sweep is emitted, as CSV:
/// bench/baselines/check_shapes.py consumes it to assert LS >= RS on
/// every row, a non-shrinking LSM-vs-LS *miss margin* as |T| grows
/// (--lsm-gap-monotone; makespan is too load-imbalance-noisy to gate
/// on), and drift against the committed baseline.

#include <cstring>
#include <iostream>
#include <string>

#include "core/laps.h"
#include "util/parallel.h"

namespace {

void contentionSweep(bool csv) {
  using namespace laps;

  const auto suite = standardSuite();
  const std::vector<SchedulerKind> kinds{
      SchedulerKind::Random, SchedulerKind::RoundRobin,
      SchedulerKind::Locality, SchedulerKind::LocalityMapping,
      SchedulerKind::L2ContentionAware};
  const std::vector<std::int64_t> l2SizesKb{128, 256};
  const std::vector<std::int64_t> busWidthsBytes{4, 16};
  // |T| points chosen where the suite's re-layout opportunity grows with
  // the mix (the full 1..6 range is covered by bench_fig7_concurrent;
  // the t=3 and t=6 mixes give LSM almost nothing to re-layout, so they
  // carry no signal for the contention question asked here).
  const std::vector<std::size_t> ts{1, 4, 5};

  // One independent runExperiment per (platform point, scheduler),
  // flattened in emission order and fanned out over the thread pool.
  // Every experiment is a pure function of its (workload, config), so
  // the ordered collection keeps the CSV byte-exact with the serial
  // sweep at any thread count.
  struct Job {
    std::string label;
    std::int64_t l2Kb = 0;
    std::int64_t width = 0;
    std::size_t t = 0;
    std::size_t mixIndex = 0;
    SchedulerKind kind = SchedulerKind::Random;
  };
  std::vector<Workload> mixes;
  mixes.reserve(ts.size());
  for (const std::size_t t : ts) mixes.push_back(concurrentScenario(suite, t));
  std::vector<Job> jobs;
  for (const std::int64_t l2Kb : l2SizesKb) {
    for (const std::int64_t width : busWidthsBytes) {
      for (std::size_t ti = 0; ti < ts.size(); ++ti) {
        const std::string label = "l2-" + std::to_string(l2Kb) + "kb_bus-" +
                                  std::to_string(width) + "b_t-" +
                                  std::to_string(ts[ti]);
        for (const SchedulerKind kind : kinds) {
          jobs.push_back(Job{label, l2Kb, width, ts[ti], ti, kind});
        }
      }
    }
  }

  const std::vector<ExperimentResult> results =
      parallelMap<ExperimentResult>(jobs.size(), [&](std::size_t i) {
        const Job& job = jobs[i];
        ExperimentConfig config;
        // The composable platform descriptor (cache/platform.h): a
        // broadcast-coherent bus MPSoC with a shared banked L2.
        PlatformConfig& platform = config.mpsoc.platform;
        platform.interconnect = InterconnectKind::Bus;
        platform.sharedL2.emplace();
        platform.sharedL2->sizeBytes = job.l2Kb * 1024;
        platform.bus.widthBytes = job.width;
        return runExperiment(mixes[job.mixIndex], job.kind, config);
      });

  if (csv) {
    std::cout.precision(12);
    std::cout << "case,scheduler,l2_kb,bus_width,t,processes,"
                 "makespan_cycles,seconds,dcache_misses,l2_accesses,"
                 "l2_misses,bus_wait_cycles\n";
  }
  Table table({"Case", "Sched", "Time (ms)", "D$ misses", "L2 miss%",
               "Bus wait (kcyc)"});

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const ExperimentResult& r = results[i];
    if (csv) {
      std::cout << job.label << ',' << r.schedulerName << ',' << job.l2Kb
                << ',' << job.width << ',' << job.t << ','
                << mixes[job.mixIndex].graph.processCount() << ','
                << r.sim.makespanCycles << ',' << r.sim.seconds << ','
                << r.sim.dcacheTotal.misses << ','
                << r.sim.l2Total.accesses << ','
                << r.sim.l2Total.misses << ',' << r.sim.busWaitCycles
                << '\n';
    } else {
      table.row()
          .cell(job.label)
          .cell(r.schedulerName)
          .cell(r.sim.seconds * 1e3, 3)
          .cell(r.sim.dcacheTotal.misses)
          .cell(r.sim.l2Total.missRate() * 100.0, 1)
          .cell(static_cast<double>(r.sim.busWaitCycles) / 1e3, 0);
    }
  }
  if (!csv) {
    std::cout << "-- (g) memory-hierarchy contention sweep "
                 "(8-bank shared L2, 2-slot bus) --\n"
              << table.ascii() << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace laps;

  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      std::cerr << "usage: bench_ablation [--csv]\n";
      return 2;
    }
  }
  if (csv) {
    // CSV mode emits only the contention sweep (the machine-checked
    // table); the narrative ablations stay human output.
    contentionSweep(true);
    return 0;
  }

  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 3);
  const Application isolated = makeMxM();

  std::cout << "=== Ablations (3-app mix unless noted) ===\n\n";

  {
    Table t({"LS variant", "Time (ms)", "D$ misses"});
    for (const bool initialRound : {true, false}) {
      ExperimentConfig config;
      config.sched.lsInitialMinSharingRound = initialRound;
      const auto r = runExperiment(mix, SchedulerKind::Locality, config);
      t.row()
          .cell(initialRound ? "with initial min-sharing round"
                             : "without initial round")
          .cell(r.sim.seconds * 1e3, 3)
          .cell(r.sim.dcacheTotal.misses);
    }
    std::cout << "-- (a) Fig. 3 initial round --\n" << t.ascii() << '\n';
  }
  {
    Table t({"LS execution", "Time (ms)", "D$ misses", "Utilization"});
    for (const bool staticPlan : {false, true}) {
      const auto fps = mix.footprints();
      const SharingMatrix sharing = SharingMatrix::compute(fps);
      const AddressSpace space(mix.arrays);
      LocalityOptions options;
      options.staticPlan = staticPlan;
      LocalityScheduler policy(options);
      MpsocConfig mpsoc;
      MpsocSimulator sim(mix, space, sharing, policy, mpsoc);
      const SimResult r = sim.run();
      t.row()
          .cell(staticPlan ? "rigid static plan" : "online greedy (default)")
          .cell(mpsoc.cyclesToSeconds(r.makespanCycles) * 1e3, 3)
          .cell(r.dcacheTotal.misses)
          .cell(r.utilization(), 3);
    }
    std::cout << "-- (b) online vs static-plan LS --\n" << t.ascii() << '\n';
  }
  {
    Table t({"RRS quantum", "Time (ms)", "D$ misses", "Preemptions"});
    for (const std::int64_t quantum : {2'000, 8'000, 32'000, 128'000}) {
      ExperimentConfig config;
      config.sched.rrsQuantumCycles = quantum;
      const auto r = runExperiment(mix, SchedulerKind::RoundRobin, config);
      t.row()
          .cell(std::to_string(quantum) + " cyc")
          .cell(r.sim.seconds * 1e3, 3)
          .cell(r.sim.dcacheTotal.misses)
          .cell(r.sim.preemptions);
    }
    std::cout << "-- (c) RRS quantum sweep (default 8000) --\n"
              << t.ascii() << '\n';
  }
  {
    Table t({"Config", "Time (ms)", "D$ misses"});
    for (const bool flush : {false, true}) {
      ExperimentConfig config;
      config.mpsoc.flushOnSwitch = flush;
      const auto r =
          runExperiment(isolated.workload, SchedulerKind::Locality, config);
      t.row()
          .cell(flush ? "flush caches on switch" : "caches persist (default)")
          .cell(r.sim.seconds * 1e3, 3)
          .cell(r.sim.dcacheTotal.misses);
    }
    std::cout << "-- (d) cache persistence across switches (MxM, LS) --\n"
              << t.ascii() << '\n';
  }
  {
    Table t({"Threshold T", "Time (ms)", "Re-layouts", "Conflict misses"});
    ExperimentConfig probe;
    probe.mpsoc.memory.classifyMisses = true;
    for (const std::int64_t threshold :
         {std::int64_t{0}, std::int64_t{1'000}, std::int64_t{100'000},
          std::int64_t{1} << 60}) {
      ExperimentConfig config = probe;
      config.relayoutThreshold = threshold;
      const auto r =
          runExperiment(mix, SchedulerKind::LocalityMapping, config);
      t.row()
          .cell(threshold >= (std::int64_t{1} << 60)
                    ? "inf (re-layout off)"
                    : std::to_string(threshold))
          .cell(r.sim.seconds * 1e3, 3)
          .cell(r.relayoutedArrays)
          .cell(r.sim.dataMisses.conflict);
    }
    // The paper's default: mean over actionable pairs.
    ExperimentConfig config = probe;
    const auto r = runExperiment(mix, SchedulerKind::LocalityMapping, config);
    t.row()
        .cell("mean (paper default) = " + std::to_string(r.relayoutThreshold))
        .cell(r.sim.seconds * 1e3, 3)
        .cell(r.relayoutedArrays)
        .cell(r.sim.dataMisses.conflict);
    std::cout << "-- (e) re-layout threshold sweep (LSM) --\n"
              << t.ascii() << '\n';
  }
  {
    Table t({"Scheduler", "Time (ms)", "D$ misses", "Energy (mJ)"});
    const std::vector<SchedulerKind> kinds{
        SchedulerKind::Random,       SchedulerKind::RoundRobin,
        SchedulerKind::Fcfs,         SchedulerKind::Sjf,
        SchedulerKind::CriticalPath, SchedulerKind::DynamicLocality,
        SchedulerKind::Locality,     SchedulerKind::LocalityMapping};
    for (const auto kind : kinds) {
      const auto r = runExperiment(mix, kind, {});
      t.row()
          .cell(r.schedulerName)
          .cell(r.sim.seconds * 1e3, 3)
          .cell(r.sim.dcacheTotal.misses)
          .cell(r.energyMj, 3);
    }
    std::cout << "-- (f) extension schedulers (paper §6 future work) --\n"
              << t.ascii() << '\n';
  }
  contentionSweep(false);
  return 0;
}
