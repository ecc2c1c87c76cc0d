//===- DagSolve.cpp - Linear-time volume assignment ---------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/DagSolve.h"

#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"
#include "aqua/support/Fatal.h"

#include <algorithm>
#include <limits>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

/// Returns the node's input-side relative volume: output Vnorm divided by
/// the output fraction (a separation holding 100 units must have been fed
/// 100/f units). Unknown-volume nodes are treated as yield-1 because their
/// true yield is measured at run time (Section 3.5).
static Rational inputVnorm(const Node &Nd, const Rational &OutVnorm) {
  if (Nd.UnknownVolume || Nd.Kind == NodeKind::Input)
    return OutVnorm;
  if (Nd.OutFraction == Rational(1))
    return OutVnorm;
  return OutVnorm / Nd.OutFraction;
}

Rational aqua::core::nodeInputVnorm(const AssayGraph &G, NodeId N,
                                    const DagSolveResult &Vnorms) {
  return inputVnorm(G.node(N), Vnorms.NodeVnorm[N]);
}

void aqua::core::computeVnorms(const AssayGraph &G, const DagSolveOptions &Opts,
                               DagSolveResult &Result) {
  Result.NodeVnorm.assign(G.numNodeSlots(), Rational(0));
  Result.EdgeVnorm.assign(G.numEdgeSlots(), Rational(0));

  // Figure 4 line 2: leaf (output) nodes get Vnorm 1, or their configured
  // weight. Excess leaves are skipped here; their Vnorm derives from their
  // source below.
  for (NodeId N : G.liveNodes()) {
    const Node &Nd = G.node(N);
    if (Nd.Kind == NodeKind::Excess || !G.isLeaf(N))
      continue;
    Rational Weight(1);
    for (const auto &[Out, W] : Opts.OutputWeights)
      if (Out == N)
        Weight = W;
    Result.NodeVnorm[N] = Weight;
  }

  // Figure 4 lines 3-7: reverse topological order. Each node's Vnorm is the
  // sum of its out-edge Vnorms (flow conservation); each in-edge is the mix
  // fraction times the node's input-side Vnorm.
  std::vector<NodeId> Order = G.topologicalOrder();
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    NodeId N = *It;
    const Node &Nd = G.node(N);
    if (Nd.Kind == NodeKind::Excess)
      continue; // Derived from the source, below.

    const std::vector<EdgeId> &Outs = G.outEdges(N);
    if (!Outs.empty()) {
      Rational Sum(0);
      Rational ExcessShare(0);
      for (EdgeId E : Outs) {
        const Node &Dst = G.node(G.edge(E).Dst);
        if (Dst.Kind == NodeKind::Excess)
          ExcessShare += Dst.ExcessShare;
        else
          Sum += Result.EdgeVnorm[E];
      }
      // Section 3.4.1: a node feeding excess nodes produces
      // Sum / (1 - share); the discarded fraction is known a priori.
      if (ExcessShare.isZero()) {
        Result.NodeVnorm[N] = Sum;
      } else {
        if (ExcessShare >= Rational(1))
          reportFatalError("excess shares at a node sum to >= 1");
        Result.NodeVnorm[N] = Sum / (Rational(1) - ExcessShare);
      }
      // Now that the source is known, fill in the excess edges and nodes.
      for (EdgeId E : Outs) {
        NodeId DstId = G.edge(E).Dst;
        const Node &Dst = G.node(DstId);
        if (Dst.Kind != NodeKind::Excess)
          continue;
        Rational V = Dst.ExcessShare * Result.NodeVnorm[N];
        Result.EdgeVnorm[E] = V;
        Result.NodeVnorm[DstId] = V;
      }
    }
    // else: leaf, already seeded above.

    Rational InVnorm = inputVnorm(Nd, Result.NodeVnorm[N]);
    for (EdgeId E : G.inEdges(N))
      Result.EdgeVnorm[E] = G.edge(E).Fraction * InVnorm;
  }

  // Figure 4 line 8: the maximum Vnorm. The binding constraint is the
  // input-side volume (what the functional unit holds during the
  // operation), which is >= the output volume.
  Result.MaxVnorm = Rational(0);
  Result.MaxVnormNode = InvalidNode;
  for (NodeId N : G.liveNodes()) {
    Rational InV = inputVnorm(G.node(N), Result.NodeVnorm[N]);
    if (InV > Result.MaxVnorm) {
      Result.MaxVnorm = InV;
      Result.MaxVnormNode = N;
    }
  }
}

VolumeAssignment aqua::core::dispenseVolumes(const AssayGraph &G,
                                             const DagSolveResult &Vnorms,
                                             double NlPerVnorm) {
  VolumeAssignment A;
  A.NodeVolumeNl.assign(G.numNodeSlots(), 0.0);
  A.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  for (NodeId N : G.liveNodes())
    A.NodeVolumeNl[N] = Vnorms.NodeVnorm[N].toDouble() * NlPerVnorm;
  for (EdgeId E : G.liveEdges())
    A.EdgeVolumeNl[E] = Vnorms.EdgeVnorm[E].toDouble() * NlPerVnorm;
  return A;
}

DagSolveResult aqua::core::dagSolve(const AssayGraph &G,
                                    const MachineSpec &Spec,
                                    const DagSolveOptions &Opts) {
  AQUA_TRACE_SPAN("core.dagsolve", "core");
  struct DagMetrics {
    obs::Counter &Runs = obs::metrics().counter("core.dagsolve.runs");
    obs::Counter &Infeasible =
        obs::metrics().counter("core.dagsolve.infeasible");
  };
  static DagMetrics Met;
  Met.Runs.add();

  DagSolveResult Result;
  computeVnorms(G, Opts, Result);

  if (Result.MaxVnorm.isZero()) {
    // Degenerate graph (no live nodes, or all volumes zero).
    Result.Feasible = false;
    Met.Infeasible.add();
    return Result;
  }

  // Figure 4 lines 9-11: dispense. By default the largest (input-side)
  // Vnorm gets the machine maximum; the §3.5 loop strategy instead pins a
  // chosen node to a caller-specified volume.
  double NlPerVnorm;
  if (Opts.PinnedNode) {
    Rational Pin = Result.NodeVnorm[*Opts.PinnedNode];
    if (Pin.isZero()) {
      Result.Feasible = false;
      Met.Infeasible.add();
      return Result;
    }
    NlPerVnorm = Opts.PinnedVolumeNl / Pin.toDouble();
  } else {
    NlPerVnorm = Spec.MaxCapacityNl / Result.MaxVnorm.toDouble();
  }
  Result.Volumes = dispenseVolumes(G, Result, NlPerVnorm);

  // Feasibility: every dispensed edge meets the least count; every node's
  // input-side volume fits in the hardware.
  constexpr double Tol = 1e-9;
  Result.MinDispenseNl = std::numeric_limits<double>::infinity();
  Result.MinEdge = -1;
  for (EdgeId E : G.liveEdges()) {
    double V = Result.Volumes.EdgeVolumeNl[E];
    if (V < Result.MinDispenseNl) {
      Result.MinDispenseNl = V;
      Result.MinEdge = E;
    }
  }
  bool Under = Result.MinEdge >= 0 &&
               Result.MinDispenseNl < Spec.LeastCountNl - Tol;
  bool Over = false;
  for (NodeId N : G.liveNodes()) {
    double InVol = inputVnorm(G.node(N), Result.NodeVnorm[N]).toDouble() *
                   NlPerVnorm;
    if (InVol > Spec.MaxCapacityNl + Tol)
      Over = true;
  }
  Result.Feasible = !Under && !Over;
  if (!Result.Feasible)
    Met.Infeasible.add();
  return Result;
}
