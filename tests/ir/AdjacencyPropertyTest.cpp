//===- AdjacencyPropertyTest.cpp - Adjacency invariant under transforms ---===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// AssayGraph::inEdges/outEdges are views of the lists the mutators keep, so
// those lists must always equal what the edge table says: every live edge
// listed once at each endpoint, nothing else. This drives generated
// programs through lowering and every graph transform and rebuilds the
// lists from the edge table after each step.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Generator.h"
#include "aqua/core/Cascading.h"
#include "aqua/core/MachineSpec.h"
#include "aqua/core/Partition.h"
#include "aqua/core/Replication.h"
#include "aqua/ir/Canonical.h"
#include "aqua/lang/Lower.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace aqua;
using namespace aqua::ir;

namespace {

/// Every node's lists equal a rebuild from the edge table. In-lists are
/// only ever appended to by addEdge, which hands out ascending ids, so
/// their attachment order is id order. setEdgeSource appends a rewired
/// edge to its new source's out-list, an order the table does not record,
/// so out-lists are compared as sets.
void expectListsMatchEdgeTable(const AssayGraph &G, const std::string &Step) {
  std::vector<std::vector<EdgeId>> In(G.numNodeSlots()),
      Out(G.numNodeSlots());
  for (EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (G.edge(E).Dead)
      continue;
    In[G.edge(E).Dst].push_back(E);
    Out[G.edge(E).Src].push_back(E);
  }
  for (NodeId N = 0; N < G.numNodeSlots(); ++N) {
    EXPECT_EQ(G.inEdges(N), In[N]) << Step << ": in-edges of node " << N;
    std::vector<EdgeId> Listed = G.outEdges(N);
    std::sort(Listed.begin(), Listed.end());
    EXPECT_EQ(Listed, Out[N]) << Step << ": out-edges of node " << N;
  }
}

/// The lists match and the graph still verifies.
void expectSound(const AssayGraph &G, const std::string &Step) {
  expectListsMatchEdgeTable(G, Step);
  Status S = G.verify();
  EXPECT_TRUE(S.ok()) << Step << ": " << S.message();
}

class AdjacencyProperty : public ::testing::TestWithParam<int> {};

TEST_P(AdjacencyProperty, ListsMatchEdgeTableAfterEveryTransform) {
  const std::uint64_t Seed = static_cast<std::uint64_t>(GetParam());
  check::GenConfig Config;
  Config.Difficulty = 1 + GetParam() % 3;
  std::string Source = check::generateProgram(Seed, Config).render();
  auto L = lang::compileAssay(Source);
  ASSERT_TRUE(L.ok()) << L.message() << "\n" << Source;
  AssayGraph G = L->Graph;
  expectSound(G, "lowering");

  AssayGraph Canon = buildCanonicalGraph(G, canonicalize(G));
  expectSound(Canon, "canonical rebuild");

  for (NodeId M : G.liveNodes()) {
    if (G.node(M).Kind == NodeKind::Mix && G.inEdges(M).size() > 2) {
      ASSERT_TRUE(core::binarizeMix(G, M).ok());
    }
  }
  expectSound(G, "binarizeMix");

  // cascadeMix refuses (before touching the graph) mixes that are not
  // skewed or that involve no-excess fluids.
  for (NodeId M : G.liveNodes())
    if (G.node(M).Kind == NodeKind::Mix && G.inEdges(M).size() == 2)
      (void)core::cascadeMix(G, M, 2);
  expectSound(G, "cascadeMix");

  // replicateNode checks its resource budget before touching the graph.
  core::MachineSpec Spec;
  for (NodeId N : G.liveNodes())
    if (G.outEdges(N).size() >= 2 && G.node(N).Kind != NodeKind::Excess &&
        core::replicateNode(G, N, 2, Spec).ok())
      break;
  expectSound(G, "replicateNode");

  auto Plan = core::buildPartitionPlan(G, Spec);
  ASSERT_TRUE(Plan.ok()) << Plan.message();
  expectSound(Plan->Graph, "buildPartitionPlan");

  // Removing an arbitrary node may leave a mix short of sources, which
  // verify() rejects on its own; only the lists are checked here.
  std::vector<NodeId> Live = G.liveNodes();
  G.removeNode(Live[Seed % Live.size()]);
  expectListsMatchEdgeTable(G, "removeNode");
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjacencyProperty, ::testing::Range(1, 41));

} // namespace
