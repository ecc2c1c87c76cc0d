//===- PartitionExecutorTest.cpp - Run-time dispensing tests ---------------------===//
//
// Part of AquaVol. MIT license.
//
//
// Section 3.5 end to end through vm::runChip with online re-management
// off: each partition is dispensed from earlier measurements, then metered
// and run on the VM in wave order.
//
//===----------------------------------------------------------------------===//

#include "aqua/vm/Fleet.h"

#include "aqua/assays/PaperAssays.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace aqua::vm;

namespace {

NodeId findNode(const AssayGraph &G, const std::string &Name) {
  for (NodeId N : G.liveNodes())
    if (G.node(N).Name == Name)
      return N;
  return InvalidNode;
}

/// Runs one chip of \p Img under \p FO's seed, failing (like the plain
/// executor) where dispensing underflows the least count.
ChipResult runPartitioned(const FleetImage &Img, FleetOptions FO) {
  FO.EnableOnlineRemanage = false;
  return runChip(Img, FO, FO.Seed);
}

} // namespace

TEST(PartitionExecutor, GlycomicsEndToEnd) {
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();

  FleetOptions FO;
  FO.FixedSeparationYield = 0.5;
  ChipResult R = runPartitioned(*Img, FO);
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.PartitionsExecuted, 4);
  EXPECT_EQ(R.Regenerations, 0);
  // All three separations were measured.
  EXPECT_EQ(R.MeasuredNl.size(), 3u);
  EXPECT_NEAR(R.MeasuredNl.at("effluent"), 50.0, 1e-6); // 100 nl * 0.5.

  // Partition 0 dispenses mix1 at capacity; partition 1's scale is bound
  // by the 50 nl buffer3a half (55 nl at mix3, as in the paper's numbers).
  NodeId Mix1 = findNode(Img->Plan.Graph, "mix1");
  NodeId Mix3 = findNode(Img->Plan.Graph, "mix3");
  EXPECT_NEAR(R.Volumes.NodeVolumeNl[Mix1], 100.0, 1e-6);
  EXPECT_NEAR(R.Volumes.NodeVolumeNl[Mix3], 55.0, 1e-6);
}

TEST(PartitionExecutor, ScarceYieldTriggersRegenerationRequest) {
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();

  FleetOptions FO;
  FO.FixedSeparationYield = 0.0005; // 0.05 nl of effluent from 100 nl.
  ChipResult R = runPartitioned(*Img, FO);
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("regeneration"), std::string::npos) << R.Error;
}

TEST(PartitionExecutor, DeterministicUnderSeed) {
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();

  FleetOptions FO;
  FO.Seed = 99;
  ChipResult A = runPartitioned(*Img, FO);
  ChipResult B = runPartitioned(*Img, FO);
  ASSERT_TRUE(A.Completed) << A.Error;
  EXPECT_EQ(A.MeasuredNl, B.MeasuredNl);
  EXPECT_EQ(A.FluidSeconds, B.FluidSeconds);
}

TEST(PartitionExecutor, KnownVolumeCutFluidIsPublished) {
  // The Figure 8 shape: a known-volume produced fluid X with one use in a
  // later wave. Its dispensed volume must feed the later partition.
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId X = G.addMix("X", {{A, 1}, {B, 1}});
  NodeId Y = G.addMix("Y", {{X, 1}, {B, 1}});
  NodeId U = G.addUnary(NodeKind::Separate, "U", Y);
  G.node(U).UnknownVolume = true;
  NodeId Late = G.addMix("late", {{X, 1}, {U, 1}});
  G.addUnary(NodeKind::Sense, "sense_R_1", Late);
  ASSERT_TRUE(G.verify().ok());

  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();

  FleetOptions FO;
  FO.FixedSeparationYield = 0.4;
  ChipResult R = runPartitioned(*Img, FO);
  ASSERT_TRUE(R.Completed) << R.Error;
  // X's dispensed volume was published for the late partition.
  EXPECT_TRUE(R.MeasuredNl.count("X"));
  EXPECT_TRUE(R.MeasuredNl.count("U"));
  ASSERT_EQ(R.Senses.size(), 1u);
  // The late mix consumed half of X's output at most.
  NodeId XPlan = findNode(Img->Plan.Graph, "X");
  EXPECT_GT(R.Volumes.NodeVolumeNl[XPlan], 0.0);
}

TEST(PartitionExecutor, SingleStaticPartitionWorksToo) {
  AssayGraph G = assays::buildGlucoseAssay();
  MachineSpec Spec;
  auto Img = compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();
  ASSERT_EQ(Img->Plan.Parts.size(), 1u);

  FleetOptions FO;
  ChipResult R = runPartitioned(*Img, FO);
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.PartitionsExecuted, 1);
  EXPECT_EQ(R.Senses.size(), 5u);
  EXPECT_EQ(R.Regenerations, 0);
}
