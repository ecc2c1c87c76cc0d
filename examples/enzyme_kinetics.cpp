//===- enzyme_kinetics.cpp - Cascading and replication in action ----------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The enzyme-inhibition assay (Figure 11) defeats both DAGSolve and LP:
// its 1:999 serial dilution underflows at 9.8 pl, and one diluent
// reservoir cannot cover the dilution series. This example walks the
// Figure 6 hierarchy: watch the driver cascade the extreme mixes,
// replicate the diluent, and land on a feasible metered assignment -- then
// replay the paper's manual Figure 14 sequence for comparison.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Cascading.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Manager.h"
#include "aqua/core/Replication.h"
#include "aqua/ir/AssayGraph.h"

#include <cstdio>

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

void report(const char *Title, const AssayGraph &G, const DagSolveResult &R) {
  std::printf("%-44s min dispense %9.4f nl (%s)\n", Title, R.MinDispenseNl,
              R.Feasible ? "feasible" : "UNDERFLOW");
  NodeId Diluent = findNode(G, "diluent");
  if (Diluent != InvalidNode)
    std::printf("%-44s diluent Vnorm %s ~ %.1f\n", "",
                R.NodeVnorm[Diluent].str().c_str(),
                R.NodeVnorm[Diluent].toDouble());
}

} // namespace

int main() {
  MachineSpec Spec;

  // ----- The raw assay: Figure 14(a).
  AssayGraph G = assays::buildEnzymeAssay(4);
  DagSolveResult R0 = dagSolve(G, Spec);
  std::printf("== Figure 14(a): raw enzyme assay ==\n");
  report("initial DAGSolve", G, R0);
  std::printf("  (the paper: dilutions 9.8 nl, 1:999 edge underflows at "
              "9.8 pl)\n\n");

  // ----- The paper's manual sequence: cascade each 1:999 into three 1:9
  // stages, then replicate the diluent three ways.
  std::printf("== Figure 14(b): the paper's manual transform sequence ==\n");
  for (const char *Name : {"inh_dil4", "enz_dil4", "sub_dil4"}) {
    NodeId M = findNode(G, Name);
    auto CI = cascadeMix(G, M, /*Stages=*/3);
    if (!CI.ok()) {
      std::fprintf(stderr, "cascade failed: %s\n", CI.message().c_str());
      return 1;
    }
  }
  DagSolveResult R1 = dagSolve(G, Spec);
  report("after cascading the 1:999 mixes", G, R1);
  std::printf("  (the paper: diluent Vnorm rises to 81; new 65.6 pl "
              "underflow at the 1:99 mixes)\n");

  NodeId Diluent = findNode(G, "diluent");
  auto Reps = replicateNode(G, Diluent, 3, Spec);
  if (!Reps.ok()) {
    std::fprintf(stderr, "replication failed: %s\n", Reps.message().c_str());
    return 1;
  }
  // The paper assigns each replica to one reagent class ("one for enzyme,
  // one for substrate, and one for inhibitor"), which balances the three
  // replicas exactly; regroup the round-robin distribution the same way.
  for (NodeId Rep : *Reps) {
    // A copy: setEdgeSource rewrites the list being walked.
    std::vector<EdgeId> Outs = G.outEdges(Rep);
    for (EdgeId E : Outs) {
      const std::string &Consumer = G.node(G.edge(E).Dst).Name;
      int Class = Consumer.rfind("inh_", 0) == 0   ? 0
                  : Consumer.rfind("enz_", 0) == 0 ? 1
                                                   : 2;
      if ((*Reps)[Class] != Rep)
        G.setEdgeSource(E, (*Reps)[Class]);
    }
  }
  DagSolveResult R2 = dagSolve(G, Spec);
  report("after replicating the diluent 3x", G, R2);
  std::printf("  (the paper: minimum dispense rises ~3x to 196 pl; all "
              "underflow gone)\n\n");

  // ----- The automatic driver on a fresh copy of the assay.
  std::printf("== Automatic Figure 6 hierarchy ==\n");
  ManagerResult VM = manageVolumes(assays::buildEnzymeAssay(4), Spec);
  std::printf("%s", VM.Log.c_str());
  if (!VM.Feasible) {
    std::fprintf(stderr, "driver failed to find an assignment\n");
    return 1;
  }
  std::printf("driver result: %d cascades, %d replications, min dispense "
              "%.4f nl, mean rounding error %.2f%%\n",
              VM.CascadesApplied, VM.ReplicationsApplied, VM.MinDispenseNl,
              VM.Rounded.MeanRatioErrorPct);
  return 0;
}
