//===- RoundingTest.cpp - RVol->IVol rounding tests (Section 4.2) --------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/Rounding.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/DagSolve.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

TEST(Rounding, ExactMultiplesRoundWithoutError) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M = G.addMix("M", {{A, 1}, {B, 3}});
  G.addUnary(NodeKind::Sense, "out", M);
  MachineSpec Spec; // least count 0.1 nl.

  VolumeAssignment V;
  V.NodeVolumeNl.assign(G.numNodeSlots(), 0.0);
  V.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  V.NodeVolumeNl[A] = 10.0;
  V.NodeVolumeNl[B] = 30.0;
  V.NodeVolumeNl[M] = 40.0;
  for (EdgeId E : G.liveEdges())
    V.EdgeVolumeNl[E] = G.edge(E).Src == A   ? 10.0
                        : G.edge(E).Src == B ? 30.0
                                             : 40.0;

  IntegerAssignment I = roundToLeastCount(G, V, Spec);
  EXPECT_FALSE(I.Underflow);
  EXPECT_FALSE(I.Overflow);
  EXPECT_EQ(I.MaxRatioErrorPct, 0.0);
  EXPECT_EQ(I.NodeUnits[M], 400);
}

TEST(Rounding, CapacityUnitsNeverExceedCapacity) {
  MachineSpec Spec;
  Spec.MaxCapacityNl = 401.9196;
  Spec.LeastCountNl = 0.025; // 16076.784 units: floor, not nearest.
  EXPECT_EQ(Spec.capacityUnits(), 16076);
  EXPECT_LE(Spec.capacityUnits() * Spec.LeastCountNl, Spec.MaxCapacityNl);
  // Whole multiples stay exact despite the quotient's float error.
  Spec.MaxCapacityNl = 1000.0;
  Spec.LeastCountNl = 0.1;
  EXPECT_EQ(Spec.capacityUnits(), 10000);
  EXPECT_EQ(MachineSpec{}.capacityUnits(), 1000);

  // A mix filled to capacity whose inputs both round up lands 0.0054 nl
  // over it in nanoliters; the rounding must flag that as an overflow.
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M = G.addMix("M", {{A, 1}, {B, 3}});
  G.addUnary(NodeKind::Sense, "out", M);
  Spec.MaxCapacityNl = 401.9196;
  Spec.LeastCountNl = 0.025;
  VolumeAssignment V;
  V.NodeVolumeNl.assign(G.numNodeSlots(), 0.0);
  V.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  V.NodeVolumeNl[A] = 100.98;   // 4039.2 units -> 4039
  V.NodeVolumeNl[B] = 300.9396; // 12037.584 units -> 12038
  V.NodeVolumeNl[M] = 401.9196;
  for (EdgeId E : G.liveEdges())
    V.EdgeVolumeNl[E] = V.NodeVolumeNl[G.edge(E).Src];
  IntegerAssignment I = roundToLeastCount(G, V, Spec);
  ASSERT_EQ(I.NodeUnits[M], 16077);
  EXPECT_GT(I.NodeUnits[M] * Spec.LeastCountNl, Spec.MaxCapacityNl);
  EXPECT_TRUE(I.Overflow);
}

TEST(Rounding, GlucoseErrorBelowTwoPercent) {
  // Section 4.2: "Averaged across the glucose and enzyme assays, the error
  // was no more than 2%", with max 100 nl and least count 0.1 nl.
  AssayGraph G = assays::buildGlucoseAssay();
  MachineSpec Spec;
  DagSolveResult R = dagSolve(G, Spec);
  ASSERT_TRUE(R.Feasible);
  IntegerAssignment I = roundToLeastCount(G, R.Volumes, Spec);
  EXPECT_FALSE(I.Underflow);
  EXPECT_FALSE(I.Overflow);
  EXPECT_LT(I.MeanRatioErrorPct, 2.0);
  EXPECT_LT(I.MaxRatioErrorPct, 2.0);
}

TEST(Rounding, Figure2RoundsFeasibly) {
  AssayGraph G = assays::buildFigure2Example();
  MachineSpec Spec;
  DagSolveResult R = dagSolve(G, Spec);
  IntegerAssignment I = roundToLeastCount(G, R.Volumes, Spec);
  EXPECT_FALSE(I.Underflow);
  EXPECT_FALSE(I.Overflow);
  // 13.04 nl rounds to 130 units; node volumes recomputed from edges.
  EXPECT_LT(I.MeanRatioErrorPct, 0.5);
  for (NodeId N : G.liveNodes()) {
    auto In = G.inEdges(N);
    if (In.empty())
      continue;
    std::int64_t Sum = 0;
    for (EdgeId E : In)
      Sum += I.EdgeUnits[E];
    EXPECT_EQ(I.NodeUnits[N], Sum);
  }
}

TEST(Rounding, SubLeastCountUnderflows) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M = G.addMix("M", {{A, 1}, {B, 999}});
  G.addUnary(NodeKind::Sense, "out", M);
  MachineSpec Spec;

  VolumeAssignment V;
  V.NodeVolumeNl.assign(G.numNodeSlots(), 0.0);
  V.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  // 0.04 nl < half the least count: rounds to zero units.
  for (EdgeId E : G.liveEdges())
    V.EdgeVolumeNl[E] = G.edge(E).Src == A ? 0.04 : 39.96;
  IntegerAssignment I = roundToLeastCount(G, V, Spec);
  EXPECT_TRUE(I.Underflow);
}

TEST(Rounding, YieldFractionAppliesToNodeUnits) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId S = G.addUnary(NodeKind::Separate, "S", A);
  G.node(S).OutFraction = Rational(1, 3);
  G.addUnary(NodeKind::Sense, "out", S);
  MachineSpec Spec;

  VolumeAssignment V;
  V.NodeVolumeNl.assign(G.numNodeSlots(), 0.0);
  V.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  for (EdgeId E : G.liveEdges())
    V.EdgeVolumeNl[E] = 10.0;
  V.NodeVolumeNl[A] = 10.0;
  IntegerAssignment I = roundToLeastCount(G, V, Spec);
  // 100 units in, yield 1/3 -> 33 units out (nearest).
  EXPECT_EQ(I.NodeUnits[S], 33);
}

TEST(Rounding, MixRatioErrorMetric) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M = G.addMix("M", {{A, 1}, {B, 2}});
  G.addUnary(NodeKind::Sense, "out", M);

  IntegerAssignment I;
  I.NodeUnits.assign(G.numNodeSlots(), 0);
  I.EdgeUnits.assign(G.numEdgeSlots(), 0);
  // Achieved 1:1.9 instead of 1:2 on the mix in-edges.
  for (EdgeId E : G.liveEdges()) {
    if (G.edge(E).Dst != M)
      continue;
    I.EdgeUnits[E] = G.edge(E).Src == A ? 10 : 19;
  }
  auto [MaxErr, MeanErr] = mixRatioErrorPct(G, I);
  // Achieved fractions 10/29 vs 1/3 and 19/29 vs 2/3.
  EXPECT_NEAR(MaxErr, (10.0 / 29.0 - 1.0 / 3.0) / (1.0 / 3.0) * 100.0, 1e-9);
  EXPECT_GT(MeanErr, 0.0);
  EXPECT_LE(MeanErr, MaxErr);
}
