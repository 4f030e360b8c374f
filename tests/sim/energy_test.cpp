/// \file energy_test.cpp
/// \brief Pins EnergyModel's per-access/per-miss accounting against
/// hand-computed values, including the shared-L2/bus terms the memory
/// hierarchy added.

#include "sim/energy.h"

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace laps {
namespace {

TEST(EnergyModel, ZeroActivityCostsNothing) {
  EXPECT_EQ(EnergyModel{}.totalMj(SimResult{}), 0.0);
}

TEST(EnergyModel, FlatPlatformHandComputed) {
  // 100 D accesses (10 misses, 3 write-backs) + 50 I accesses (5 misses),
  // 1000 busy + 200 idle cycles, no L2:
  //   L1: 150 * 0.2            =  30 nJ
  //   off-chip: (10+5+3) * 6.0 = 108 nJ
  //   busy: 1000 * 0.15        = 150 nJ
  //   idle:  200 * 0.015       =   3 nJ
  SimResult r;
  r.dcacheTotal.accesses = 100;
  r.dcacheTotal.misses = 10;
  r.dcacheTotal.dirtyEvictions = 3;
  r.icacheTotal.accesses = 50;
  r.icacheTotal.misses = 5;
  r.coreBusyCycles = {600, 400};
  r.coreIdleCycles = {0, 200};
  EXPECT_DOUBLE_EQ(EnergyModel{}.totalMj(r), 291.0 * 1e-6);
}

TEST(EnergyModel, SharedL2FiltersOffChipTraffic) {
  // Same L1 activity, but an L2 absorbed most of it: 15 L2 accesses
  // (the L1 misses), 4 L2 misses, 2 L2 write-backs, plus 1 dirty L1
  // copy flushed off chip by inclusion back-invalidation past a clean
  // L2 entry. The L1 write-backs stay on chip; off-chip events are the
  // L2's misses + write-backs + that inclusion write-back.
  //   L1: 150 * 0.2          = 30 nJ
  //   L2:  15 * 1.0          = 15 nJ
  //   off-chip: (4+2+1) * 6.0 = 42 nJ
  //   busy/idle as before    = 153 nJ
  SimResult r;
  r.dcacheTotal.accesses = 100;
  r.dcacheTotal.misses = 10;
  r.dcacheTotal.dirtyEvictions = 3;
  r.icacheTotal.accesses = 50;
  r.icacheTotal.misses = 5;
  r.coreBusyCycles = {600, 400};
  r.coreIdleCycles = {0, 200};
  r.sharedL2Enabled = true;
  r.l2Total.accesses = 15;
  r.l2Total.misses = 4;
  r.l2Total.dirtyEvictions = 2;
  r.inclusionWritebacks = 1;
  EXPECT_DOUBLE_EQ(EnergyModel{}.totalMj(r), 240.0 * 1e-6);
}

TEST(EnergyModel, CustomCoefficientsScaleLinearly) {
  SimResult r;
  r.dcacheTotal.accesses = 10;
  r.dcacheTotal.misses = 2;
  EnergyModel m;
  m.l1AccessNj = 1.0;
  m.offChipAccessNj = 10.0;
  m.coreBusyNjPerCycle = 0.0;
  m.coreIdleNjPerCycle = 0.0;
  EXPECT_DOUBLE_EQ(m.totalMj(r), (10.0 * 1.0 + 2.0 * 10.0) * 1e-6);
  m.l2AccessNj = 100.0;  // irrelevant while no L2 is attached
  EXPECT_DOUBLE_EQ(m.totalMj(r), (10.0 * 1.0 + 2.0 * 10.0) * 1e-6);
}

TEST(EnergyModel, ExperimentEnergyMatchesManualRecomputation) {
  // End-to-end guard: the harness's energyMj is exactly the model
  // applied to the returned SimResult, L2 enabled or not.
  const auto suite = standardSuite(AppParams{0.25});
  const Workload mix = concurrentScenario(suite, 2);
  for (const bool withL2 : {false, true}) {
    ExperimentConfig config;
    if (withL2) {
      PlatformConfig& platform = config.mpsoc.platform;
      platform.interconnect = InterconnectKind::Bus;
      platform.sharedL2.emplace();
    }
    const auto r = runExperiment(mix, SchedulerKind::Locality, config);
    EXPECT_EQ(r.sim.sharedL2Enabled, withL2);
    EXPECT_DOUBLE_EQ(r.energyMj, config.energy.totalMj(r.sim));
    if (withL2) {
      EXPECT_GT(r.sim.l2Total.accesses, 0u);
    }
  }
}

}  // namespace
}  // namespace laps
