//===- ExtraAssaysTest.cpp - Integration tests on realistic assays ---------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end integration over the extra assay library: every assay must
// verify, be volume-manageable (or partitionable), compile to AIS, and
// simulate without regeneration once managed.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/ExtraAssays.h"

#include "aqua/codegen/Codegen.h"
#include "aqua/core/Manager.h"
#include "aqua/lang/Lower.h"
#include "aqua/service/Pipeline.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/Fleet.h"
#include "aqua/vm/VM.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

namespace {

/// Manage + codegen + simulate; expect zero regenerations.
void runManagedEndToEnd(const AssayGraph &G, size_t ExpectedSenses) {
  MachineSpec Spec;
  service::CompileArtifact A = service::compileGraph(G, Spec, {}, {});
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(A.Managed);
  const ManagerResult &VM = A.VM;
  EXPECT_GE(VM.MinDispenseNl, Spec.LeastCountNl - 1e-9);
  EXPECT_LT(VM.Rounded.MeanRatioErrorPct, 2.0);

  vm::CompileOptions CO;
  CO.Graph = &VM.Graph;
  auto BC = vm::compile(A.Program, CO);
  ASSERT_TRUE(BC.ok()) << BC.message();
  vm::SimResult S = vm::run(*BC);
  ASSERT_TRUE(S.Completed) << S.Error;
  EXPECT_EQ(S.Regenerations, 0);
  EXPECT_EQ(S.Senses.size(), ExpectedSenses);
}

} // namespace

TEST(ExtraAssays, BradfordProteinEndToEnd) {
  AssayGraph G = assays::buildBradfordProtein();
  ASSERT_TRUE(G.verify().ok());
  // The dye reagent is the heavily shared fluid: 9 uses.
  for (NodeId N : G.liveNodes()) {
    if (G.node(N).Name == "dye_reagent") {
      EXPECT_EQ(G.outEdges(N).size(), 9u);
    }
  }
  runManagedEndToEnd(G, 9);
}

TEST(ExtraAssays, BradfordSourceMatchesBuilder) {
  auto L = lang::compileAssay(assays::bradfordSource());
  ASSERT_TRUE(L.ok()) << L.message();
  AssayGraph Ref = assays::buildBradfordProtein();
  EXPECT_EQ(L->Graph.numNodes(), Ref.numNodes());
  EXPECT_EQ(L->Graph.numEdges(), Ref.numEdges());
  // Same volume behaviour: identical Vnorm multisets.
  MachineSpec Spec;
  DagSolveResult A = dagSolve(L->Graph, Spec);
  DagSolveResult B = dagSolve(Ref, Spec);
  EXPECT_EQ(A.MaxVnorm, B.MaxVnorm);
  EXPECT_NEAR(A.MinDispenseNl, B.MinDispenseNl, 1e-12);
}

TEST(ExtraAssays, PcrMasterMixNeedsReplicationOrSucceeds) {
  // One cocktail aliquoted 12 ways: the master mix is the capacity-pinned
  // node; the manager must end feasible (with replication if needed).
  AssayGraph G = assays::buildPcrMasterMix(12);
  ASSERT_TRUE(G.verify().ok());
  runManagedEndToEnd(G, 12);
}

TEST(ExtraAssays, MicPanelChainedDilutions) {
  AssayGraph G = assays::buildMicPanel(8);
  ASSERT_TRUE(G.verify().ok());
  // Every dilution except the last has two uses (next step + its well).
  int TwoUses = 0;
  for (NodeId N : G.liveNodes())
    if (G.node(N).Name.rfind("dil", 0) == 0 && G.outEdges(N).size() == 2)
      ++TwoUses;
  EXPECT_EQ(TwoUses, 7);
  runManagedEndToEnd(G, 8);
}

TEST(ExtraAssays, ImmunoassayPartitionsAndRuns) {
  AssayGraph G = assays::buildImmunoassay();
  ASSERT_TRUE(G.verify().ok());
  MachineSpec Spec;
  auto Img = vm::compileFleetImage(G, Spec);
  ASSERT_TRUE(Img.ok()) << Img.message();
  EXPECT_EQ(Img->Plan.Parts.size(), 3u); // Two unknown separations.

  vm::FleetOptions FO;
  FO.FixedSeparationYield = 0.5;
  FO.EnableOnlineRemanage = false;
  vm::ChipResult R = vm::runChip(*Img, FO, FO.Seed);
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.PartitionsExecuted, 3);
  EXPECT_EQ(R.MeasuredNl.size(), 2u);
  EXPECT_EQ(R.Senses.size(), 1u);
}

TEST(ExtraAssays, ScalingKnobsWork) {
  EXPECT_TRUE(assays::buildBradfordProtein(3, 1).verify().ok());
  EXPECT_TRUE(assays::buildPcrMasterMix(4).verify().ok());
  EXPECT_TRUE(assays::buildMicPanel(3).verify().ok());
}
