//===- bench_fig14_enzyme_extensions.cpp - Figure 14 reproduction ----------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 14 and its narrative, step by step:
//
//   (a) raw enzyme assay: dilutions at Vnorm 16/3, diluent at ~54,
//       dilutions dispensed at 9.8 nl, the 1:999 edge underflowing at
//       9.8 pl -- and LP failing as well;
//   (b) cascade each 1:999 into three 1:9 stages (intermediates at 16/3,
//       diluent rising to ~81, new 65.6 pl underflow at the 1:99 mixes);
//       replicate the diluent three ways (Vnorm ~27 per replica, minimum
//       dispense rising ~3x to 196 pl: feasible);
//   plus the paper's "replication without cascading" probe (29.5 pl:
//   still infeasible).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Cascading.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Formulation.h"
#include "aqua/core/Manager.h"
#include "aqua/core/Replication.h"

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace benchutil;

namespace {

NodeId findNode(const AssayGraph &G, const std::string &Name) {
  for (NodeId N : G.liveNodes())
    if (G.node(N).Name == Name)
      return N;
  return InvalidNode;
}

std::string nl3(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f pl", V * 1000.0);
  return Buf;
}

/// The paper's replica assignment: one diluent replica per reagent class.
void regroupByReagent(AssayGraph &G, const std::vector<NodeId> &Reps) {
  for (NodeId Rep : Reps) {
    // A copy: setEdgeSource rewrites the list being walked.
    std::vector<EdgeId> Outs = G.outEdges(Rep);
    for (EdgeId E : Outs) {
      const std::string &Consumer = G.node(G.edge(E).Dst).Name;
      int Class = Consumer.rfind("inh_", 0) == 0   ? 0
                  : Consumer.rfind("enz_", 0) == 0 ? 1
                                                   : 2;
      if (Reps[Class] != Rep)
        G.setEdgeSource(E, Reps[Class]);
    }
  }
}

} // namespace

int main() {
  MachineSpec Spec;

  // ----- (a) the raw assay.
  AssayGraph G = assays::buildEnzymeAssay(4);
  DagSolveResult R0 = dagSolve(G, Spec);
  header("Figure 14(a): raw enzyme assay");
  paperRow("dilution Vnorm", "16/3",
           R0.NodeVnorm[findNode(G, "enz_dil4")].str());
  paperRow("diluent Vnorm (maximum)", "54",
           R0.NodeVnorm[findNode(G, "diluent")].str() + " ~ " +
               std::to_string(R0.NodeVnorm[findNode(G, "diluent")].toDouble()));
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2f nl",
                R0.Volumes.NodeVolumeNl[findNode(G, "enz_dil4")]);
  paperRow("dilution dispensed volume", "9.8 nl", Buf);
  paperRow("minimum dispense (1:999 edge)", "9.8 pl", nl3(R0.MinDispenseNl));
  paperRow("DAGSolve feasible", "no", R0.Feasible ? "yes" : "no");
  LPVolumeResult LP0 = solveRVolLP(G, Spec);
  paperRow("LP also fails", "yes",
           LP0.Solution.Status == lp::SolveStatus::Infeasible
               ? "yes (infeasible)"
               : lp::solveStatusName(LP0.Solution.Status));

  // ----- Probe: replication without cascading (the paper's 29.5 pl).
  {
    AssayGraph GR = assays::buildEnzymeAssay(4);
    NodeId Dil = findNode(GR, "diluent");
    auto Reps = replicateNode(GR, Dil, 3, Spec);
    regroupByReagent(GR, *Reps);
    DagSolveResult RR = dagSolve(GR, Spec);
    header("Probe: replication WITHOUT cascading");
    paperRow("minimum dispense", "29.5 pl", nl3(RR.MinDispenseNl));
    paperRow("feasible", "no", RR.Feasible ? "yes" : "no");
  }

  // ----- (b) cascade the 1:999 mixes.
  header("Figure 14(b) step 1: cascade each 1:999 into three 1:9 stages");
  for (const char *Name : {"inh_dil4", "enz_dil4", "sub_dil4"})
    cascadeMix(G, findNode(G, Name), 3).unwrap();
  DagSolveResult R1 = dagSolve(G, Spec);
  NodeId Casc = findNode(G, "enz_dil4.casc1");
  paperRow("cascade intermediates' Vnorm", "16/3",
           R1.NodeVnorm[Casc].str());
  paperRow("diluent uses", "18 (from 12)",
           std::to_string(G.outEdges(findNode(G, "diluent")).size()));
  paperRow("diluent Vnorm", "81",
           R1.NodeVnorm[findNode(G, "diluent")].str() + " ~ " +
               std::to_string(R1.NodeVnorm[findNode(G, "diluent")].toDouble()));
  paperRow("new minimum dispense (1:99 mixes)", "65.6 pl",
           nl3(R1.MinDispenseNl));
  paperRow("feasible yet", "no", R1.Feasible ? "yes" : "no");

  // ----- (b) replicate the diluent three ways.
  header("Figure 14(b) step 2: replicate the diluent 3x (one per reagent)");
  NodeId Dil = findNode(G, "diluent");
  auto Reps = replicateNode(G, Dil, 3, Spec);
  regroupByReagent(G, *Reps);
  DagSolveResult R2 = dagSolve(G, Spec);
  paperRow("diluent Vnorm per replica", "81/3 = 27",
           R2.NodeVnorm[Dil].str() + " ~ " +
               std::to_string(R2.NodeVnorm[Dil].toDouble()));
  paperRow("minimum dispense", "196 pl", nl3(R2.MinDispenseNl));
  paperRow("all underflow eliminated", "yes", R2.Feasible ? "yes" : "no");
  LPVolumeResult LP2 = solveRVolLP(G, Spec);
  paperRow("LP on the transformed DAG", "feasible",
           lp::solveStatusName(LP2.Solution.Status));

  // ----- The automatic Figure 6 driver end-to-end.
  header("Automatic driver (Figure 6) on the raw assay");
  ManagerResult VM = manageVolumes(assays::buildEnzymeAssay(4), Spec);
  std::printf("%s", VM.Log.c_str());
  std::snprintf(Buf, sizeof(Buf), "%.1f pl, %d cascades, %d replications",
                VM.MinDispenseNl * 1000.0, VM.CascadesApplied,
                VM.ReplicationsApplied);
  paperRow("driver outcome", "feasible", VM.Feasible ? Buf : "INFEASIBLE");
  std::snprintf(Buf, sizeof(Buf), "mean %.2f%%, max %.2f%%",
                VM.Rounded.MeanRatioErrorPct, VM.Rounded.MaxRatioErrorPct);
  paperRow("rounding error (Section 4.2)", "< 2% mean", Buf);
  return 0;
}
