//===- FleetTest.cpp - Fleet simulation tests ------------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/vm/Fleet.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/check/Reference.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace aqua::vm;

namespace {

/// A chip with online re-management off must reproduce aqua/check's
/// reference executor bit for bit.
void expectChipMatchesExecutor(const ChipResult &Chip, const ChipResult &Ref) {
  EXPECT_EQ(Chip.Completed, Ref.Completed);
  EXPECT_EQ(Chip.Error, Ref.Error);
  EXPECT_EQ(Chip.PartitionsExecuted, Ref.PartitionsExecuted);
  EXPECT_EQ(Chip.FluidSeconds, Ref.FluidSeconds);
  EXPECT_EQ(Chip.Regenerations, Ref.Regenerations);
  EXPECT_EQ(Chip.MeasuredNl, Ref.MeasuredNl);
  EXPECT_EQ(Chip.Volumes.NodeVolumeNl, Ref.Volumes.NodeVolumeNl);
  EXPECT_EQ(Chip.Volumes.EdgeVolumeNl, Ref.Volumes.EdgeVolumeNl);
  ASSERT_EQ(Chip.Senses.size(), Ref.Senses.size());
  for (std::size_t I = 0; I < Ref.Senses.size(); ++I) {
    EXPECT_EQ(Chip.Senses[I].Name, Ref.Senses[I].Name);
    EXPECT_EQ(Chip.Senses[I].VolumeNl, Ref.Senses[I].VolumeNl);
    EXPECT_EQ(Chip.Senses[I].Composition, Ref.Senses[I].Composition);
  }
}

} // namespace

TEST(Fleet, GlycomicsChipMatchesExecutePartitionedFixedYield) {
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();
  ASSERT_EQ(Img->Segments.size(), 4u);

  RunOptions RO;
  RO.FixedSeparationYield = 0.5;
  ChipResult Ref = check::referenceExecutePartitioned(Img->Plan, Spec, RO);
  ASSERT_TRUE(Ref.Completed) << Ref.Error;

  FleetOptions FO;
  FO.EnableOnlineRemanage = false;
  FO.FixedSeparationYield = 0.5;
  ChipResult Chip = runChip(*Img, FO, RO.Seed);
  expectChipMatchesExecutor(Chip, Ref);
  EXPECT_GT(Chip.InstructionsExecuted, 0u);
  EXPECT_EQ(Chip.OnlineRemanages, 0);
  EXPECT_EQ(Chip.SegmentRecompiles, 0);
}

TEST(Fleet, GlycomicsChipMatchesExecutePartitionedRandomYields) {
  // Random yields: the chip's yield stream must consume draws at exactly
  // the executor's sites (Seed ^ 0xa55a, member order).
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  for (std::uint64_t Seed : {0x5eedULL, 3ULL, 0xabcULL}) {
    RunOptions RO;
    RO.Seed = Seed;
    ChipResult Ref = check::referenceExecutePartitioned(Img->Plan, Spec, RO);
    FleetOptions FO;
    FO.EnableOnlineRemanage = false;
    ChipResult Chip = runChip(*Img, FO, Seed);
    expectChipMatchesExecutor(Chip, Ref);
  }
}

TEST(Fleet, ScarceYieldFailureMatchesExecutor) {
  // With online re-management off the chip must fail exactly where (and
  // with the words) the executor does.
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  RunOptions RO;
  RO.FixedSeparationYield = 0.0005;
  ChipResult Ref = check::referenceExecutePartitioned(Img->Plan, Spec, RO);
  ASSERT_FALSE(Ref.Completed);

  FleetOptions FO;
  FO.EnableOnlineRemanage = false;
  FO.FixedSeparationYield = 0.0005;
  ChipResult Chip = runChip(*Img, FO, RO.Seed);
  EXPECT_FALSE(Chip.Completed);
  EXPECT_EQ(Chip.Error, Ref.Error);
}

TEST(Fleet, StaticAssayFleetCompletes) {
  // A fully static assay is a single-partition fleet image.
  AssayGraph G = assays::buildGlucoseAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();
  ASSERT_EQ(Img->Segments.size(), 1u);

  FleetOptions FO;
  FO.NumChips = 4;
  FleetResult R = runFleet(*Img, FO);
  EXPECT_EQ(R.ChipsCompleted, 4);
  EXPECT_EQ(R.ChipsFailed, 0);
  ASSERT_EQ(R.Chips.size(), 4u);
  for (const ChipResult &C : R.Chips) {
    EXPECT_TRUE(C.Completed) << C.Error;
    EXPECT_EQ(C.PartitionsExecuted, 1);
    EXPECT_EQ(C.Senses.size(), 5u);
  }
  EXPECT_GT(R.MakespanSec, 0.0);
  EXPECT_GT(R.InstructionsExecuted, 0u);
}

TEST(Fleet, DeterministicUnderSeed) {
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  FleetOptions FO;
  FO.NumChips = 8;
  FO.Seed = 42;
  FleetResult A = runFleet(*Img, FO);
  FleetResult B = runFleet(*Img, FO);
  EXPECT_EQ(A.ChipsCompleted, B.ChipsCompleted);
  EXPECT_EQ(A.InstructionsExecuted, B.InstructionsExecuted);
  EXPECT_EQ(A.MakespanSec, B.MakespanSec);
  EXPECT_EQ(A.TotalFluidSeconds, B.TotalFluidSeconds);
  ASSERT_EQ(A.Chips.size(), B.Chips.size());
  for (std::size_t C = 0; C < A.Chips.size(); ++C) {
    EXPECT_EQ(A.Chips[C].MeasuredNl, B.Chips[C].MeasuredNl);
    EXPECT_EQ(A.Chips[C].FluidSeconds, B.Chips[C].FluidSeconds);
  }
  // Different chips draw different yield streams.
  EXPECT_NE(A.Chips[0].MeasuredNl, A.Chips[1].MeasuredNl);
}

TEST(Fleet, VolumesAreThreadCountInvariant) {
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  FleetOptions FO;
  FO.NumChips = 16;
  FO.Seed = 7;
  FleetResult Serial = runFleet(*Img, FO);
  FO.Threads = 4;
  FleetResult Parallel = runFleet(*Img, FO);

  ASSERT_EQ(Serial.Chips.size(), Parallel.Chips.size());
  for (std::size_t C = 0; C < Serial.Chips.size(); ++C) {
    EXPECT_EQ(Serial.Chips[C].Completed, Parallel.Chips[C].Completed);
    EXPECT_EQ(Serial.Chips[C].Error, Parallel.Chips[C].Error);
    EXPECT_EQ(Serial.Chips[C].FluidSeconds, Parallel.Chips[C].FluidSeconds);
    EXPECT_EQ(Serial.Chips[C].MeasuredNl, Parallel.Chips[C].MeasuredNl);
    EXPECT_EQ(Serial.Chips[C].Volumes.NodeVolumeNl,
              Parallel.Chips[C].Volumes.NodeVolumeNl);
  }
  EXPECT_EQ(Serial.InstructionsExecuted, Parallel.InstructionsExecuted);
}

TEST(Fleet, SharedReservoirContentionChargesWaits) {
  // A pool far smaller than the fleet's aggregate draw forces refill
  // stalls; volumes stay unaffected (contention charges time only).
  AssayGraph G = assays::buildGlucoseAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  FleetOptions FO;
  FO.NumChips = 8;
  FleetResult Free = runFleet(*Img, FO);

  FO.SharedReservoirs = true;
  FO.ReservoirCapacityNl = 150.0;
  FO.ReservoirRefillNlPerSec = 5.0;
  FleetResult Contended = runFleet(*Img, FO);

  EXPECT_EQ(Contended.ChipsCompleted, 8);
  EXPECT_GT(Contended.ReservoirWaitSec, 0.0);
  EXPECT_GT(Contended.MakespanSec, Free.MakespanSec);
  ASSERT_EQ(Free.Chips.size(), Contended.Chips.size());
  for (std::size_t C = 0; C < Free.Chips.size(); ++C) {
    EXPECT_EQ(Free.Chips[C].MeasuredNl, Contended.Chips[C].MeasuredNl);
    EXPECT_EQ(Free.Chips[C].Volumes.NodeVolumeNl,
              Contended.Chips[C].Volumes.NodeVolumeNl);
  }
}

TEST(Fleet, ConcurrentContendedFleetIsRaceFree) {
  // Exercised under TSan in CI: many chips, many workers, shared pools.
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  FleetOptions FO;
  FO.NumChips = 32;
  FO.Threads = 8;
  FO.SharedReservoirs = true;
  FO.ReservoirCapacityNl = 500.0;
  FO.ReservoirRefillNlPerSec = 25.0;
  FleetResult R = runFleet(*Img, FO);
  EXPECT_EQ(R.ChipsCompleted + R.ChipsFailed, 32);
  EXPECT_GT(R.InstructionsExecuted, 0u);
}
