//===- OnlineRemanageTest.cpp - Section 3.5 online re-management -----------------===//
//
// Part of AquaVol. MIT license.
//
// A sensed (statically-unknown) volume can come up so short that run-time
// dispensing underflows the least count. The plain partitioned executor
// (aqua/check's reference) gives up there; the fleet re-enters the volume manager online with the
// measured availability pinned, patches (or recompiles) the partition's
// bytecode, and resumes the VM.
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

/// A separation feeding an extreme 1999:1 mix. Proportional dispensing at
/// the measured effluent volume pushes the dilutant edge to ~0.02 nl --
/// under the 0.1 nl least count -- so the static plan cannot run. The
/// online manager, pinned at the measured availability, cascades the
/// extreme mix into least-count-safe stages.
AssayGraph buildScarceDilutionAssay() {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId Prep = G.addMix("prep", {{A, 1}, {B, 1}});
  NodeId Eff = G.addUnary(NodeKind::Separate, "eff", Prep);
  G.node(Eff).UnknownVolume = true;
  NodeId C = G.addInput("C");
  NodeId Skew = G.addMix("skew", {{Eff, 1999}, {C, 1}});
  G.addUnary(NodeKind::Sense, "sense_R_1", Skew);
  EXPECT_TRUE(G.verify().ok());
  return G;
}

} // namespace

TEST(OnlineRemanage, ExecutorGivesUpWhereTheFleetRecovers) {
  AssayGraph G = buildScarceDilutionAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();
  ASSERT_EQ(Img->Segments.size(), 2u);

  // The static executor fails: dispensing underflows and all it can ask
  // for is regeneration.
  RunOptions RO;
  RO.FixedSeparationYield = 0.45;
  ChipResult Ref = check::referenceExecutePartitioned(Img->Plan, Spec, RO);
  ASSERT_FALSE(Ref.Completed);
  EXPECT_NE(Ref.Error.find("underflows the least count"), std::string::npos)
      << Ref.Error;

  // With online re-management off, the chip reproduces that failure
  // verbatim.
  FleetOptions FO;
  FO.FixedSeparationYield = 0.45;
  FO.EnableOnlineRemanage = false;
  ChipResult Static = runChip(*Img, FO, RO.Seed);
  EXPECT_FALSE(Static.Completed);
  EXPECT_EQ(Static.Error, Ref.Error);

  // Online: the manager cascades the 1999:1 mix under the measured pin,
  // the re-managed segment recompiles (its instruction stream changed),
  // and the chip completes.
  FO.EnableOnlineRemanage = true;
  ChipResult Online = runChip(*Img, FO, RO.Seed);
  ASSERT_TRUE(Online.Completed) << Online.Error;
  EXPECT_EQ(Online.OnlineRemanages, 1);
  EXPECT_GE(Online.SegmentRecompiles, 1);
  EXPECT_EQ(Online.PartitionsExecuted, 2);

  // The measured effluent (100 nl * 0.45) fed the re-managed partition.
  ASSERT_TRUE(Online.MeasuredNl.count("eff"));
  EXPECT_NEAR(Online.MeasuredNl.at("eff"), 45.0, 1e-9);

  // The patched segment really executed: the sense sees the 1:1999
  // dilution with the cascade's rounding error, not a degenerate mix.
  // (The carrier is the partition's stand-in fluid for the measured
  // effluent -- partitions run standalone, like the executor's.)
  ASSERT_EQ(Online.Senses.size(), 1u);
  const SenseReading &Read = Online.Senses.front();
  ASSERT_TRUE(Read.Composition.count("C"));
  double CFrac = Read.Composition.at("C");
  EXPECT_GT(CFrac, 0.0001);
  EXPECT_LT(CFrac, 0.002);
  double Total = 0.0;
  for (const auto &KV : Read.Composition)
    Total += KV.second;
  EXPECT_NEAR(Total, 1.0, 1e-9);

  // Volume conservation across the re-entry: the chip never consumed more
  // effluent than was measured.
  EXPECT_GT(Read.VolumeNl, 0.0);
  EXPECT_LE(Read.VolumeNl, 45.0 + 1e-9);
}

TEST(OnlineRemanage, TotalsMatchTheRegenerationFreeProfile) {
  // The online path must not silently regenerate its way to completion:
  // recovery comes from re-management (new metering), not from the
  // runtime's reactive regeneration backstop.
  AssayGraph G = buildScarceDilutionAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  FleetOptions FO;
  FO.FixedSeparationYield = 0.45;
  ChipResult Online = runChip(*Img, FO, 0x5eed);
  ASSERT_TRUE(Online.Completed) << Online.Error;
  EXPECT_EQ(Online.Regenerations, 0);
  EXPECT_EQ(Online.PartitionReruns, 0);
  // Both partitions' wet time is accounted.
  EXPECT_GT(Online.FluidSeconds, 0.0);
  EXPECT_GT(Online.InstructionsExecuted, 0u);
}

TEST(OnlineRemanage, HopelessYieldExhaustsRetriesViaStorm) {
  // Glycomics at a yield of 0.05 nl: the pin sits below the least count,
  // no transform can help, and re-running the producer (fixed yield)
  // measures the same scarcity every time. The chip must fail after
  // MaxOnlineRetries regeneration storms, not hang.
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  FleetOptions FO;
  FO.FixedSeparationYield = 0.0005;
  FO.MaxOnlineRetries = 3;
  ChipResult Chip = runChip(*Img, FO, 0x5eed);
  EXPECT_FALSE(Chip.Completed);
  EXPECT_NE(Chip.Error.find("online re-management exhausted"),
            std::string::npos)
      << Chip.Error;
  EXPECT_GE(Chip.PartitionReruns, 3);
  EXPECT_EQ(Chip.OnlineRemanages, 0);
}

TEST(OnlineRemanage, FleetAggregatesRemanageEvents) {
  AssayGraph G = buildScarceDilutionAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok());

  FleetOptions FO;
  FO.NumChips = 6;
  FO.FixedSeparationYield = 0.45;
  FleetResult R = runFleet(*Img, FO);
  EXPECT_EQ(R.ChipsCompleted, 6);
  EXPECT_EQ(R.OnlineRemanages, 6);
  EXPECT_GE(R.SegmentRecompiles, 6);
}
