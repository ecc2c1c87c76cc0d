//===- SimulatorTest.cpp - AquaCore simulator tests -----------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/runtime/Simulator.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Manager.h"
#include "aqua/core/Rounding.h"
#include "aqua/service/Pipeline.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::codegen;
using namespace aqua::core;
using namespace aqua::ir;
using namespace aqua::runtime;

namespace {

/// Managed program + simulation for a feasible static assay. The RVol
/// assignment is rounded to the hardware least count first (IVol), exactly
/// as a real deployment would meter it.
SimResult runManaged(const AssayGraph &G, const VolumeAssignment &RVol,
                     bool Regen = false) {
  IntegerAssignment IV = roundToLeastCount(G, RVol, MachineSpec{});
  EXPECT_FALSE(IV.Underflow);
  VolumeAssignment Volumes = integerToNl(G, IV, MachineSpec{});
  CodegenOptions CG;
  CG.Mode = VolumeMode::Managed;
  CG.Volumes = &Volumes;
  auto P = generateAIS(G, MachineLayout{}, CG);
  EXPECT_TRUE(P.ok()) << P.message();
  SimOptions SO;
  SO.EnableRegeneration = Regen;
  SO.Graph = &G;
  return simulate(*P, SO);
}

} // namespace

TEST(Simulator, GlucoseManagedRunsCleanly) {
  AssayGraph G = assays::buildGlucoseAssay();
  DagSolveResult R = dagSolve(G, MachineSpec{});
  ASSERT_TRUE(R.Feasible);
  SimResult S = runManaged(G, R.Volumes);
  ASSERT_TRUE(S.Completed) << S.Error;
  // With volume management there are no regenerations and no underflows
  // ("With DAGSolve, there are no regenerations").
  EXPECT_EQ(S.Regenerations, 0);
  EXPECT_EQ(S.UnderflowEvents, 0);
  EXPECT_EQ(S.SubLeastCountMoves, 0);
  ASSERT_EQ(S.Senses.size(), 5u);
}

TEST(Simulator, GlucoseSensedConcentrationsMatchRatios) {
  // End-to-end: the 1:1, 1:2, 1:4, 1:8 calibration points must arrive at
  // the sensor with glucose fractions 1/2, 1/3, 1/5, 1/9.
  AssayGraph G = assays::buildGlucoseAssay();
  DagSolveResult R = dagSolve(G, MachineSpec{});
  SimResult S = runManaged(G, R.Volumes);
  ASSERT_TRUE(S.Completed) << S.Error;

  // Least-count metering perturbs the achieved ratios by at most the
  // paper's Section 4.2 rounding error (< 2% relative).
  double Expected[] = {1.0 / 2, 1.0 / 3, 1.0 / 5, 1.0 / 9};
  for (int I = 0; I < 4; ++I) {
    const SenseReading &Read = S.Senses[I];
    EXPECT_EQ(Read.Name, "Result_" + std::to_string(I + 1));
    double Achieved = Read.Composition.at("Glucose");
    EXPECT_NEAR(Achieved, Expected[I], 0.02 * Expected[I]);
  }
  // Result 5 senses the sample mix.
  EXPECT_NEAR(S.Senses[4].Composition.at("Sample"), 0.5, 0.01);
}

TEST(Simulator, GlucoseNaiveNeedsRegeneration) {
  // Without volume management (relative program, fill-to-capacity policy)
  // the reagent runs out and regeneration must kick in -- the Table 2
  // baseline.
  AssayGraph G = assays::buildGlucoseAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  SimOptions SO;
  SO.Graph = &G;
  SimResult S = simulate(*P, SO);
  ASSERT_TRUE(S.Completed) << S.Error;
  EXPECT_GT(S.Regenerations, 0);
  EXPECT_LT(S.Regenerations, 20); // Small assay: a handful of refills.
  ASSERT_EQ(S.Senses.size(), 5u);
  // Regeneration preserves chemistry up to metering resolution.
  EXPECT_NEAR(S.Senses[3].Composition.at("Glucose"), 1.0 / 9.0, 2e-3);
}

TEST(Simulator, NaiveWithoutRegenerationFails) {
  AssayGraph G = assays::buildGlucoseAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  SimOptions SO;
  SO.EnableRegeneration = false;
  SO.Graph = &G;
  SimResult S = simulate(*P, SO);
  // The run limps along with underflows (shorted transfers).
  EXPECT_GT(S.UnderflowEvents, 0);
  EXPECT_EQ(S.Regenerations, 0);
}

TEST(Simulator, EnzymeNaiveRegenerationCount) {
  // The enzyme assay's 12-times-used diluent and 16-times-used dilutions
  // force many regenerations (paper: 85 with their unspecified policy;
  // ours must land in the same regime and be far larger than glucose's).
  AssayGraph G = assays::buildEnzymeAssay(4);
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  SimOptions SO;
  SO.Graph = &G;
  SimResult S = simulate(*P, SO);
  ASSERT_TRUE(S.Completed) << S.Error;
  EXPECT_GT(S.Regenerations, 30);
  EXPECT_LT(S.Regenerations, 400);
  EXPECT_EQ(S.Senses.size(), 64u);
}

TEST(Simulator, EnzymeManagedHasNoRegenerations) {
  MachineSpec Spec;
  ManagerResult R = manageVolumes(assays::buildEnzymeAssay(4), Spec);
  ASSERT_TRUE(R.Feasible) << R.Log;
  SimResult S = runManaged(R.Graph, R.Volumes);
  ASSERT_TRUE(S.Completed) << S.Error;
  EXPECT_EQ(S.Regenerations, 0);
  EXPECT_EQ(S.UnderflowEvents, 0);
  EXPECT_EQ(S.Senses.size(), 64u);
}

TEST(Simulator, ManagedBeatsNaiveOnWetTime) {
  // Regeneration re-executes on the slow fluidic datapath: the managed run
  // must finish in less simulated wet time.
  AssayGraph G = assays::buildEnzymeAssay(4);
  auto Naive = generateAIS(G);
  ASSERT_TRUE(Naive.ok());
  SimOptions SO;
  SO.Graph = &G;
  SimResult NaiveRun = simulate(*Naive, SO);

  ManagerResult R = manageVolumes(assays::buildEnzymeAssay(4), MachineSpec{});
  ASSERT_TRUE(R.Feasible);
  SimResult ManagedRun = runManaged(R.Graph, R.Volumes);
  ASSERT_TRUE(ManagedRun.Completed);
  ASSERT_TRUE(NaiveRun.Completed);
  EXPECT_LT(ManagedRun.FluidSeconds, NaiveRun.FluidSeconds);
}

TEST(Simulator, SeparationYieldIsSeededAndBounded) {
  AssayGraph G = assays::buildGlycomicsAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  SimOptions SO;
  SO.Graph = &G;
  SimResult S1 = simulate(*P, SO);
  SimResult S2 = simulate(*P, SO);
  ASSERT_TRUE(S1.Completed) << S1.Error;
  // Determinism: same seed, same outcome.
  EXPECT_EQ(S1.FluidSeconds, S2.FluidSeconds);
  EXPECT_EQ(S1.Regenerations, S2.Regenerations);

  SO.Seed = 999;
  SimResult S3 = simulate(*P, SO);
  ASSERT_TRUE(S3.Completed) << S3.Error;

  // Fixed yield override.
  SO.FixedSeparationYield = 0.5;
  SimResult S4 = simulate(*P, SO);
  ASSERT_TRUE(S4.Completed) << S4.Error;
}

TEST(Simulator, InputAccountingTracksConsumption) {
  AssayGraph G = assays::buildGlucoseAssay();
  DagSolveResult R = dagSolve(G, MachineSpec{});
  SimResult S = runManaged(G, R.Volumes);
  ASSERT_TRUE(S.Completed);
  // Each input port was drawn exactly once (one reservoir fill).
  EXPECT_NEAR(S.InputDrawnNl.at("Glucose"), 100.0, 1e-9);
  EXPECT_NEAR(S.InputDrawnNl.at("Reagent"), 100.0, 1e-9);
  EXPECT_NEAR(S.InputDrawnNl.at("Sample"), 100.0, 1e-9);
}

TEST(Simulator, CascadedEnzymeRunsWithExcessDiscard) {
  // Full pipeline on the transformed enzyme graph: cascades' excess goes to
  // the waste port and the assay completes without regeneration.
  service::CompileArtifact A =
      service::compileGraph(assays::buildEnzymeAssay(4), {}, {}, {});
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(A.Managed);
  int Outputs = 0;
  for (const Instruction &I : A.Program.Instrs)
    if (I.Op == Opcode::Output)
      ++Outputs;
  EXPECT_GT(Outputs, 0);
  SimOptions SO;
  SO.Graph = &A.VM.Graph;
  SimResult S = simulate(A.Program, SO);
  ASSERT_TRUE(S.Completed) << S.Error;
  EXPECT_EQ(S.Regenerations, 0);
}

TEST(Simulator, SubLeastCountMovesAreCounted) {
  // A managed-style program with a sub-least-count metered move.
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M = G.addMix("M", {{A, 1}, {B, 1}});
  G.addUnary(NodeKind::Sense, "sense_R_1", M);

  VolumeAssignment V;
  V.NodeVolumeNl.assign(G.numNodeSlots(), 50.0);
  V.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  auto Edges = G.liveEdges();
  V.EdgeVolumeNl[Edges[0]] = 0.03; // Below the 0.1 nl least count.
  V.EdgeVolumeNl[Edges[1]] = 25.0;
  V.EdgeVolumeNl[Edges[2]] = 25.0;

  CodegenOptions CG;
  CG.Mode = VolumeMode::Managed;
  CG.Volumes = &V;
  auto P = generateAIS(G, MachineLayout{}, CG);
  ASSERT_TRUE(P.ok());
  SimOptions SO;
  SO.EnableRegeneration = false;
  SimResult S = simulate(*P, SO);
  EXPECT_GE(S.SubLeastCountMoves, 1);
}
