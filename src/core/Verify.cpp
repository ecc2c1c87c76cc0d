//===- Verify.cpp - Volume-assignment verification -------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/Verify.h"

#include "aqua/support/StringUtils.h"

#include <cmath>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

std::vector<Violation>
aqua::core::verifyAssignment(const AssayGraph &G, const VolumeAssignment &V,
                             const MachineSpec &Spec,
                             const VerifyOptions &Opts) {
  std::vector<Violation> Out;
  auto Report = [&Out](int Class, NodeId N, EdgeId E, double Mag,
                       std::string Msg) {
    Out.push_back(Violation{Class, N, E, Mag, std::move(Msg)});
  };

  if (V.NodeVolumeNl.size() != static_cast<size_t>(G.numNodeSlots()) ||
      V.EdgeVolumeNl.size() != static_cast<size_t>(G.numEdgeSlots())) {
    Report(0, InvalidNode, -1, 0.0,
           "assignment vectors do not match the graph's slot counts");
    return Out;
  }

  const double Tol = Opts.ToleranceNl;

  // ----- Class 1: minimum volume on every transfer.
  for (EdgeId E : G.liveEdges()) {
    double Vol = V.EdgeVolumeNl[E];
    if (Vol < 0.0)
      Report(0, InvalidNode, E, -Vol,
             format("edge %d has negative volume %.4f nl", E, Vol));
    else if (Vol < Spec.LeastCountNl - Tol)
      Report(1, InvalidNode, E, Spec.LeastCountNl - Vol,
             format("edge %d (%s -> %s) dispenses %.4f nl, below the "
                    "least count %.4f nl",
                    E, G.node(G.edge(E).Src).Name.c_str(),
                    G.node(G.edge(E).Dst).Name.c_str(), Vol,
                    Spec.LeastCountNl));
  }

  for (NodeId N : G.liveNodes()) {
    const Node &Nd = G.node(N);
    const std::vector<EdgeId> &In = G.inEdges(N);

    // ----- Class 2: maximum capacity (input side).
    double InVol = 0.0;
    for (EdgeId E : In)
      InVol += V.EdgeVolumeNl[E];
    if (In.empty())
      InVol = V.NodeVolumeNl[N];
    if (InVol > Spec.MaxCapacityNl + Tol)
      Report(2, N, -1, InVol - Spec.MaxCapacityNl,
             format("node '%s' holds %.4f nl, above the capacity %.4f nl",
                    Nd.Name.c_str(), InVol, Spec.MaxCapacityNl));

    // ----- Class 3: non-deficit.
    double Used = 0.0;
    for (EdgeId E : G.outEdges(N))
      Used += V.EdgeVolumeNl[E];
    if (Used > V.NodeVolumeNl[N] + Tol)
      Report(3, N, -1, Used - V.NodeVolumeNl[N],
             format("node '%s' is used for %.4f nl but holds only %.4f nl",
                    Nd.Name.c_str(), Used, V.NodeVolumeNl[N]));

    // ----- Class 4: mix ratios.
    if (Nd.Kind == NodeKind::Mix && InVol > 0.0) {
      for (EdgeId E : In) {
        double Achieved = V.EdgeVolumeNl[E] / InVol;
        double Exact = G.edge(E).Fraction.toDouble();
        double Rel = std::fabs(Achieved - Exact) / Exact;
        if (Rel > Opts.RatioTolerance)
          Report(4, N, E, Rel,
                 format("mix '%s': achieved fraction %.6f vs assay "
                        "fraction %.6f (%.2f%% off)",
                        Nd.Name.c_str(), Achieved, Exact, Rel * 100.0));
      }
    }

    // ----- Class 5: output relative to input.
    if (!In.empty() && !Nd.UnknownVolume) {
      double Expected = Nd.OutFraction.toDouble() * InVol;
      if (std::fabs(V.NodeVolumeNl[N] - Expected) > Tol + 1e-9 * Expected)
        Report(5, N, -1, std::fabs(V.NodeVolumeNl[N] - Expected),
               format("node '%s' outputs %.4f nl; yield says %.4f nl",
                      Nd.Name.c_str(), V.NodeVolumeNl[N], Expected));
    }
  }

  // ----- Class 6 (optional): output balance.
  if (Opts.OutputBalancePct >= 0.0) {
    NodeId Ref = InvalidNode;
    for (NodeId N : G.liveNodes()) {
      if (!G.isLeaf(N) || G.node(N).Kind == NodeKind::Excess)
        continue;
      if (Ref == InvalidNode) {
        Ref = N;
        continue;
      }
      double Lo = (1.0 - Opts.OutputBalancePct / 100.0) * V.NodeVolumeNl[Ref];
      double Hi = (1.0 + Opts.OutputBalancePct / 100.0) * V.NodeVolumeNl[Ref];
      double Vol = V.NodeVolumeNl[N];
      if (Vol < Lo - Tol || Vol > Hi + Tol)
        Report(6, N, -1, Vol < Lo ? Lo - Vol : Vol - Hi,
               format("output '%s' (%.4f nl) outside +-%.0f%% of '%s' "
                      "(%.4f nl)",
                      G.node(N).Name.c_str(), Vol, Opts.OutputBalancePct,
                      G.node(Ref).Name.c_str(), V.NodeVolumeNl[Ref]));
    }
  }

  return Out;
}

std::string
aqua::core::violationsToString(const std::vector<Violation> &Violations) {
  if (Violations.empty())
    return "  (no violations)\n";
  std::string Out;
  for (const Violation &V : Violations)
    Out += format("  [class %d] %s\n", V.ConstraintClass, V.Message.c_str());
  return Out;
}
