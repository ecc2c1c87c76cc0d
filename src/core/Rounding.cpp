//===- Rounding.cpp - RVol to IVol rounding -----------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/Rounding.h"

#include <cmath>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

IntegerAssignment aqua::core::roundToLeastCount(const AssayGraph &G,
                                                const VolumeAssignment &RVol,
                                                const MachineSpec &Spec) {
  IntegerAssignment IVol;
  IVol.NodeUnits.assign(G.numNodeSlots(), 0);
  IVol.EdgeUnits.assign(G.numEdgeSlots(), 0);

  for (EdgeId E : G.liveEdges()) {
    double Units = Spec.toUnits(RVol.EdgeVolumeNl[E]);
    IVol.EdgeUnits[E] = static_cast<std::int64_t>(std::llround(Units));
    if (IVol.EdgeUnits[E] < 1)
      IVol.Underflow = true;
  }

  std::int64_t Cap = Spec.capacityUnits();
  for (NodeId N : G.topologicalOrder()) {
    const Node &Nd = G.node(N);
    const std::vector<EdgeId> &In = G.inEdges(N);
    if (In.empty()) {
      // Input node: round its own drawn volume.
      IVol.NodeUnits[N] = static_cast<std::int64_t>(
          std::llround(Spec.toUnits(RVol.NodeVolumeNl[N])));
    } else {
      std::int64_t Sum = 0;
      for (EdgeId E : In)
        Sum += IVol.EdgeUnits[E];
      if (Sum > Cap)
        IVol.Overflow = true;
      // Output volume: yield fraction of the (integer) input, rounded.
      if (Nd.OutFraction == Rational(1) || Nd.UnknownVolume) {
        IVol.NodeUnits[N] = Sum;
      } else {
        IVol.NodeUnits[N] = (Nd.OutFraction * Rational(Sum)).roundNearest();
      }
    }
    if (IVol.NodeUnits[N] > Cap)
      IVol.Overflow = true;

    // Conservation: trim rounded-up uses so the consumers' integer demand
    // never exceeds the producer's integer volume. Excess-node edges soak
    // up slack implicitly, so only real uses are counted.
    std::vector<EdgeId> Uses;
    std::int64_t Demand = 0;
    for (EdgeId E : G.outEdges(N)) {
      if (G.node(G.edge(E).Dst).Kind == NodeKind::Excess)
        continue;
      Uses.push_back(E);
      Demand += IVol.EdgeUnits[E];
    }
    while (Demand > IVol.NodeUnits[N]) {
      EdgeId Best = -1;
      double BestSurplus = -1e18;
      for (EdgeId E : Uses) {
        if (IVol.EdgeUnits[E] <= 1)
          continue;
        double Surplus = static_cast<double>(IVol.EdgeUnits[E]) -
                         Spec.toUnits(RVol.EdgeVolumeNl[E]);
        if (Surplus > BestSurplus) {
          BestSurplus = Surplus;
          Best = E;
        }
      }
      if (Best < 0) {
        IVol.Underflow = true;
        break;
      }
      --IVol.EdgeUnits[Best];
      --Demand;
    }
  }

  auto [MaxErr, MeanErr] = mixRatioErrorPct(G, IVol);
  IVol.MaxRatioErrorPct = MaxErr;
  IVol.MeanRatioErrorPct = MeanErr;
  return IVol;
}

VolumeAssignment aqua::core::integerToNl(const AssayGraph &G,
                                         const IntegerAssignment &IVol,
                                         const MachineSpec &Spec) {
  VolumeAssignment A;
  A.NodeVolumeNl.assign(G.numNodeSlots(), 0.0);
  A.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  for (NodeId N : G.liveNodes())
    A.NodeVolumeNl[N] =
        static_cast<double>(IVol.NodeUnits[N]) * Spec.LeastCountNl;
  for (EdgeId E : G.liveEdges())
    A.EdgeVolumeNl[E] =
        static_cast<double>(IVol.EdgeUnits[E]) * Spec.LeastCountNl;
  return A;
}

std::pair<double, double>
aqua::core::mixRatioErrorPct(const AssayGraph &G,
                             const IntegerAssignment &IVol) {
  double MaxErr = 0.0;
  double SumErr = 0.0;
  int Count = 0;
  for (NodeId N : G.liveNodes()) {
    if (G.node(N).Kind != NodeKind::Mix)
      continue;
    const std::vector<EdgeId> &In = G.inEdges(N);
    std::int64_t Total = 0;
    for (EdgeId E : In)
      Total += IVol.EdgeUnits[E];
    if (Total == 0)
      continue;
    for (EdgeId E : In) {
      double Achieved =
          static_cast<double>(IVol.EdgeUnits[E]) / static_cast<double>(Total);
      double Exact = G.edge(E).Fraction.toDouble();
      double Err = std::fabs(Achieved - Exact) / Exact * 100.0;
      MaxErr = std::max(MaxErr, Err);
      SumErr += Err;
      ++Count;
    }
  }
  return {MaxErr, Count ? SumErr / Count : 0.0};
}
