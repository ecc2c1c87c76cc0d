//===- Replication.cpp - Static replication -----------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/Replication.h"

#include "aqua/support/StringUtils.h"

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

Expected<std::vector<NodeId>>
aqua::core::replicateNode(AssayGraph &G, NodeId N, int Copies,
                          const MachineSpec &Spec) {
  using RetTy = Expected<std::vector<NodeId>>;
  if (Copies < 2)
    return RetTy::error("replication needs at least two copies");
  // By value: addNode below may grow the node table and invalidate
  // references into it.
  const Node Nd = G.node(N);
  if (Nd.Kind == NodeKind::Excess)
    return RetTy::error("cannot replicate an excess node");
  // A copy: setEdgeSource below rewrites N's list.
  std::vector<EdgeId> Outs = G.outEdges(N);
  if (static_cast<int>(Outs.size()) < Copies)
    return RetTy::error(
        format("node '%s' has only %zu uses; cannot split across %d replicas",
               Nd.Name.c_str(), Outs.size(), Copies));

  // Resource check: replication adds nodes (and, for inputs, reservoirs).
  int NewNodes = Copies - 1;
  if (G.numNodes() + NewNodes > Spec.Limits.MaxNodes)
    return RetTy::error("replication exceeds the PLoC's operation budget");
  if (Nd.Kind == NodeKind::Input) {
    int Inputs = 0;
    for (NodeId L : G.liveNodes())
      if (G.node(L).Kind == NodeKind::Input)
        ++Inputs;
    if (Inputs + NewNodes > Spec.Limits.MaxInputs)
      return RetTy::error("replication exceeds the PLoC's input reservoirs");
  }

  std::vector<NodeId> Replicas{N};
  for (int C = 1; C < Copies; ++C) {
    NodeId R = G.addNode(Nd.Kind, format("%s.rep%d", Nd.Name.c_str(), C));
    Node &RN = G.node(R);
    RN.OutFraction = Nd.OutFraction;
    RN.UnknownVolume = Nd.UnknownVolume;
    RN.NoExcess = Nd.NoExcess;
    RN.Params = Nd.Params;
    // Clone the in-edges: replicas share the original's sources, which is
    // what increases the predecessors' use counts. addEdge appends to the
    // sources' and R's lists, never N's, so walking N's view is safe.
    for (EdgeId E : G.inEdges(N))
      G.addEdge(G.edge(E).Src, R, G.edge(E).Fraction);
    Replicas.push_back(R);
  }

  // Distribute the original uses round-robin across the replicas.
  for (size_t I = 0; I < Outs.size(); ++I)
    G.setEdgeSource(Outs[I], Replicas[I % Replicas.size()]);
  return Replicas;
}
