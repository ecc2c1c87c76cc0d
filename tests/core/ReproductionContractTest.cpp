//===- ReproductionContractTest.cpp - The EXPERIMENTS.md contract ----------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One authoritative regression suite for the headline reproduction claims
// in EXPERIMENTS.md. The per-module tests check these pieces in context;
// this file pins the numbers themselves so a refactor that shifts any of
// them fails loudly here first.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Cascading.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Formulation.h"
#include "aqua/core/Manager.h"
#include "aqua/core/Partition.h"
#include "aqua/core/Replication.h"
#include "aqua/core/Rounding.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

namespace {

NodeId findNode(const AssayGraph &G, const std::string &Name) {
  for (NodeId N : G.liveNodes())
    if (G.node(N).Name == Name)
      return N;
  return InvalidNode;
}

} // namespace

TEST(ReproductionContract, Figure5) {
  assays::Figure2Nodes N;
  AssayGraph G = assays::buildFigure2Example(&N);
  DagSolveResult R = dagSolve(G, MachineSpec{});
  EXPECT_EQ(R.NodeVnorm[N.L], Rational(11, 15));
  EXPECT_EQ(R.NodeVnorm[N.B], Rational(46, 45));
  EXPECT_EQ(R.MaxVnormNode, N.B);
}

TEST(ReproductionContract, Figure12GlucoseMinDispense) {
  DagSolveResult R = dagSolve(assays::buildGlucoseAssay(), MachineSpec{});
  EXPECT_NEAR(R.MinDispenseNl, 500.0 / 151.0, 1e-12); // "3.3 nl".
}

TEST(ReproductionContract, Figure13GlycomicsPartitions) {
  auto Plan = buildPartitionPlan(assays::buildGlycomicsAssay(),
                                 MachineSpec{});
  ASSERT_TRUE(Plan.ok());
  EXPECT_EQ(Plan->Parts.size(), 4u);
  NodeId Eff2 = findNode(Plan->Graph, "effluent2");
  for (const auto &CI : Plan->Inputs) {
    if (CI.Source == Eff2) {
      EXPECT_EQ(Plan->Vnorms.NodeVnorm[CI.Node], Rational(1, 204));
    }
  }
}

TEST(ReproductionContract, Figure14Chain) {
  MachineSpec Spec;
  AssayGraph G = assays::buildEnzymeAssay(4);
  DagSolveResult R0 = dagSolve(G, Spec);
  EXPECT_NEAR(R0.MinDispenseNl * 1000.0, 9.83, 0.01); // 9.8 pl.
  EXPECT_EQ(R0.NodeVnorm[findNode(G, "diluent")], Rational(6778, 125));

  for (const char *Name : {"inh_dil4", "enz_dil4", "sub_dil4"})
    cascadeMix(G, findNode(G, Name), 3).unwrap();
  DagSolveResult R1 = dagSolve(G, Spec);
  EXPECT_NEAR(R1.MinDispenseNl * 1000.0, 65.5, 0.1); // 65.6 pl.
  EXPECT_EQ(R1.NodeVnorm[findNode(G, "diluent")], Rational(2036, 25)); // 81.

  NodeId Diluent = findNode(G, "diluent");
  auto Reps = replicateNode(G, Diluent, 3, Spec);
  ASSERT_TRUE(Reps.ok());
  for (NodeId Rep : *Reps) {
    // A copy: setEdgeSource rewrites the list being walked.
    std::vector<EdgeId> Outs = G.outEdges(Rep);
    for (EdgeId E : Outs) {
      const std::string &C = G.node(G.edge(E).Dst).Name;
      int Class = C.rfind("inh_", 0) == 0 ? 0 : C.rfind("enz_", 0) == 0 ? 1 : 2;
      if ((*Reps)[Class] != Rep)
        G.setEdgeSource(E, (*Reps)[Class]);
    }
  }
  DagSolveResult R2 = dagSolve(G, Spec);
  EXPECT_TRUE(R2.Feasible);
  EXPECT_NEAR(R2.MinDispenseNl * 1000.0, 196.5, 0.5); // 196 pl.
  EXPECT_EQ(R2.NodeVnorm[Diluent], Rational(2036, 75)); // 27.
}

TEST(ReproductionContract, Table2ConstraintCounts) {
  MachineSpec Spec;
  EXPECT_EQ(buildVolumeModel(assays::buildGlucoseAssay(), Spec)
                .CountedConstraints,
            59);
  EXPECT_EQ(buildVolumeModel(assays::buildEnzymeAssay(4), Spec)
                .CountedConstraints,
            1166);
  EXPECT_EQ(buildVolumeModel(assays::buildEnzymeAssay(10), Spec)
                .CountedConstraints,
            17186);
}

TEST(ReproductionContract, EnzymeRawIsDoublyInfeasible) {
  MachineSpec Spec;
  AssayGraph G = assays::buildEnzymeAssay(4);
  EXPECT_FALSE(dagSolve(G, Spec).Feasible);
  EXPECT_EQ(solveRVolLP(G, Spec).Solution.Status,
            lp::SolveStatus::Infeasible);
}

TEST(ReproductionContract, RoundingErrorWithinTwoPercent) {
  MachineSpec Spec;
  DagSolveResult R = dagSolve(assays::buildGlucoseAssay(), Spec);
  IntegerAssignment IG =
      roundToLeastCount(assays::buildGlucoseAssay(), R.Volumes, Spec);
  ManagerResult VM = manageVolumes(assays::buildEnzymeAssay(4), Spec);
  ASSERT_TRUE(VM.Feasible);
  double Mean =
      (IG.MeanRatioErrorPct + VM.Rounded.MeanRatioErrorPct) / 2.0;
  EXPECT_LE(Mean, 2.0); // "the error was no more than 2%".
}
