//===- AssayGraphTest.cpp - Assay DAG IR tests ---------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/ir/AssayGraph.h"

#include "aqua/assays/PaperAssays.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace aqua;
using namespace aqua::ir;

TEST(AssayGraph, BuildFigure2) {
  assays::Figure2Nodes N;
  AssayGraph G = assays::buildFigure2Example(&N);
  EXPECT_EQ(G.numNodes(), 7);
  EXPECT_EQ(G.numEdges(), 8);
  EXPECT_TRUE(G.verify().ok());

  // Edge fractions: K = A:B 1:4.
  auto KIn = G.inEdges(N.K);
  ASSERT_EQ(KIn.size(), 2u);
  EXPECT_EQ(G.edge(KIn[0]).Fraction, Rational(1, 5));
  EXPECT_EQ(G.edge(KIn[1]).Fraction, Rational(4, 5));

  EXPECT_TRUE(G.isLeaf(N.M));
  EXPECT_TRUE(G.isLeaf(N.N));
  EXPECT_FALSE(G.isLeaf(N.L));
}

TEST(AssayGraph, TopologicalOrderRespectsEdges) {
  assays::Figure2Nodes N;
  AssayGraph G = assays::buildFigure2Example(&N);
  std::vector<NodeId> Order = G.topologicalOrder();
  ASSERT_EQ(Order.size(), 7u);
  auto Pos = [&](NodeId X) {
    return std::find(Order.begin(), Order.end(), X) - Order.begin();
  };
  for (EdgeId E : G.liveEdges())
    EXPECT_LT(Pos(G.edge(E).Src), Pos(G.edge(E).Dst));
}

TEST(AssayGraph, BackwardSlice) {
  assays::Figure2Nodes N;
  AssayGraph G = assays::buildFigure2Example(&N);
  std::vector<NodeId> Slice = G.backwardSlice(N.K);
  // K depends on A, B and itself.
  EXPECT_EQ(Slice.size(), 3u);
  EXPECT_TRUE(std::count(Slice.begin(), Slice.end(), N.A));
  EXPECT_TRUE(std::count(Slice.begin(), Slice.end(), N.B));
  EXPECT_TRUE(std::count(Slice.begin(), Slice.end(), N.K));

  std::vector<NodeId> Full = G.backwardSlice(N.M);
  EXPECT_EQ(Full.size(), 6u); // Everything but N.
}

TEST(AssayGraph, RemoveEdgeAndNode) {
  assays::Figure2Nodes N;
  AssayGraph G = assays::buildFigure2Example(&N);
  int Edges = G.numEdges();
  EdgeId E = G.inEdges(N.K)[0];
  G.removeEdge(E);
  EXPECT_EQ(G.numEdges(), Edges - 1);
  EXPECT_EQ(G.inEdges(N.K).size(), 1u);
  G.removeEdge(E); // Idempotent.
  EXPECT_EQ(G.numEdges(), Edges - 1);

  G.removeNode(N.L);
  EXPECT_TRUE(G.node(N.L).Dead);
  // L's edges (B->L, C->L, L->M, L->N) died with it.
  EXPECT_EQ(G.numEdges(), Edges - 5);
}

TEST(AssayGraph, SetEdgeSourceRewires) {
  assays::Figure2Nodes N;
  AssayGraph G = assays::buildFigure2Example(&N);
  EdgeId E = G.inEdges(N.K)[0]; // A -> K.
  G.setEdgeSource(E, N.C);
  EXPECT_EQ(G.edge(E).Src, N.C);
  EXPECT_TRUE(G.outEdges(N.A).empty());
  auto COut = G.outEdges(N.C);
  EXPECT_EQ(COut.size(), 3u);
}

TEST(AssayGraphVerify, CycleDetected) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M1 = G.addMix("M1", {{A, 1}, {B, 1}});
  NodeId M2 = G.addNode(NodeKind::Mix, "M2");
  G.addEdge(M1, M2, Rational(1, 2));
  G.addEdge(M2, M1, Rational(1, 2)); // Back edge: cycle.
  EXPECT_FALSE(G.verify().ok());
}

TEST(AssayGraphVerify, MixFractionsMustSumToOne) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M = G.addNode(NodeKind::Mix, "M");
  G.addEdge(A, M, Rational(1, 3));
  G.addEdge(B, M, Rational(1, 3));
  Status S = G.verify();
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("sum to"), std::string::npos);
}

TEST(AssayGraphVerify, InputWithInEdgeRejected) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M = G.addMix("M", {{A, 1}, {B, 1}});
  NodeId C = G.addInput("C");
  G.addEdge(M, C, Rational(1));
  EXPECT_FALSE(G.verify().ok());
}

TEST(AssayGraphVerify, UnaryNodeFractionMustBeOne) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId S = G.addNode(NodeKind::Sense, "S");
  G.addEdge(A, S, Rational(1, 2));
  EXPECT_FALSE(G.verify().ok());
}

TEST(AssayGraphVerify, ExcessShareRange) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId X = G.addNode(NodeKind::Excess, "X");
  G.addEdge(A, X, Rational(1));
  G.node(X).ExcessShare = Rational(0); // Out of (0,1).
  EXPECT_FALSE(G.verify().ok());
  G.node(X).ExcessShare = Rational(9, 10);
  EXPECT_TRUE(G.verify().ok());
}

TEST(AssayGraphVerify, AdjacencyListsMustMatchEdges) {
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M1 = G.addMix("M1", {{A, 1}, {B, 1}}); // Edges 0 and 1.
  G.addMix("M2", {{A, 1}, {B, 1}});             // Edges 2 and 3.
  G.setEdgeSource(0, B); // B's out-list is now {1, 3, 0}: out of id order.
  ASSERT_TRUE(G.verify().ok()) << G.verify().message();

  // An id listed twice, with the list length unchanged, hides a live edge
  // that is listed nowhere; in an id-ordered list and in a rewired one.
  AssayGraph Sorted = G;
  Sorted.node(M1).In = {0, 0};
  EXPECT_FALSE(Sorted.verify().ok());
  AssayGraph Rewired = G;
  Rewired.node(B).Out = {1, 3, 1};
  EXPECT_FALSE(Rewired.verify().ok());

  AssayGraph Dead = G;
  Dead.edge(2).Dead = true; // Still listed at A and M2.
  EXPECT_FALSE(Dead.verify().ok());
}

TEST(AssayGraph, PrintAndDot) {
  AssayGraph G = assays::buildFigure2Example();
  std::string Text = G.str();
  EXPECT_NE(Text.find("mix"), std::string::npos);
  EXPECT_NE(Text.find("4/5"), std::string::npos);
  std::string Dot = G.dot();
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

TEST(AssayGraph, PaperAssayShapes) {
  AssayGraph Glucose = assays::buildGlucoseAssay();
  EXPECT_TRUE(Glucose.verify().ok());
  EXPECT_EQ(Glucose.numNodes(), 13); // 3 inputs + 5 mixes + 5 senses.
  EXPECT_EQ(Glucose.numEdges(), 15);

  AssayGraph Glycomics = assays::buildGlycomicsAssay();
  EXPECT_TRUE(Glycomics.verify().ok());
  int Unknown = 0;
  for (NodeId N : Glycomics.liveNodes())
    if (Glycomics.node(N).UnknownVolume)
      ++Unknown;
  EXPECT_EQ(Unknown, 3); // Three separations with unknown output volume.

  AssayGraph Enzyme = assays::buildEnzymeAssay(4);
  EXPECT_TRUE(Enzyme.verify().ok());
  // 4 inputs + 12 dilutions + 64 combos + 64 incubates + 64 senses.
  EXPECT_EQ(Enzyme.numNodes(), 4 + 12 + 64 * 3);
  // Diluent used 12 times; each dilution used 16 times.
  NodeId Diluent = InvalidNode;
  for (NodeId N : Enzyme.liveNodes())
    if (Enzyme.node(N).Name == "diluent")
      Diluent = N;
  ASSERT_NE(Diluent, InvalidNode);
  EXPECT_EQ(Enzyme.outEdges(Diluent).size(), 12u);
}

TEST(AssayGraph, EnzymeScalesWithDilutions) {
  for (int D : {2, 3, 5}) {
    AssayGraph G = assays::buildEnzymeAssay(D);
    EXPECT_TRUE(G.verify().ok());
    EXPECT_EQ(G.numNodes(), 4 + 3 * D + 3 * D * D * D);
  }
}
