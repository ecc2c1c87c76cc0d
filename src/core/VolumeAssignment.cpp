//===- VolumeAssignment.cpp - Volume assignment result -----------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/VolumeAssignment.h"

#include "aqua/support/StringUtils.h"

#include <limits>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

double VolumeAssignment::minDispenseNl(const AssayGraph &G) const {
  double Min = std::numeric_limits<double>::infinity();
  for (EdgeId E : G.liveEdges())
    Min = std::min(Min, EdgeVolumeNl[E]);
  return Min;
}

double VolumeAssignment::maxNodeVolumeNl(const AssayGraph &G) const {
  double Max = 0.0;
  for (NodeId N : G.liveNodes())
    Max = std::max(Max, NodeVolumeNl[N]);
  return Max;
}

bool VolumeAssignment::feasible(const AssayGraph &G,
                                const MachineSpec &Spec) const {
  constexpr double Tol = 1e-9;
  if (minDispenseNl(G) < Spec.LeastCountNl - Tol)
    return false;
  for (NodeId N : G.liveNodes()) {
    // Input-side volume is the sum of in-edge volumes (what the functional
    // unit must hold); input nodes hold their own node volume.
    double InVol = 0.0;
    const std::vector<EdgeId> &In = G.inEdges(N);
    if (In.empty()) {
      InVol = NodeVolumeNl[N];
    } else {
      for (EdgeId E : In)
        InVol += EdgeVolumeNl[E];
    }
    if (InVol > Spec.MaxCapacityNl + Tol)
      return false;
  }
  return true;
}

std::string VolumeAssignment::str(const AssayGraph &G) const {
  std::string Out;
  for (NodeId N : G.liveNodes())
    Out += format("n%-3d %-9s %-16s %10s nl\n", N,
                  nodeKindName(G.node(N).Kind), G.node(N).Name.c_str(),
                  formatTrimmed(NodeVolumeNl[N], 3).c_str());
  for (EdgeId E : G.liveEdges()) {
    const Edge &Ed = G.edge(E);
    Out += format("e%-3d n%d(%s) -> n%d(%s)  %10s nl\n", E, Ed.Src,
                  G.node(Ed.Src).Name.c_str(), Ed.Dst,
                  G.node(Ed.Dst).Name.c_str(),
                  formatTrimmed(EdgeVolumeNl[E], 3).c_str());
  }
  return Out;
}
