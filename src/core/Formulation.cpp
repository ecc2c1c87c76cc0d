//===- Formulation.cpp - ILP/LP formulation of IVol/RVol ----------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/Formulation.h"

#include "aqua/support/StringUtils.h"

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace aqua::lp;

Formulation aqua::core::buildVolumeModel(const AssayGraph &G,
                                         const MachineSpec &Spec,
                                         const FormulationOptions &Opts) {
  Formulation F;
  F.EdgeVar.assign(G.numEdgeSlots(), -1);
  F.NodeVar.assign(G.numNodeSlots(), -1);
  Model &M = F.Model;
  M.setMaximize(true);

  const double Unit = Opts.UnitNl;
  const double LeastCount = Spec.LeastCountNl / Unit;
  const double Capacity = Spec.MaxCapacityNl / Unit;

  // --- Variables. Class 1 (minimum volume) is carried as the lower bound
  // of every edge variable but counted as a constraint per the paper.
  for (EdgeId E : G.liveEdges()) {
    const Edge &Ed = G.edge(E);
    F.EdgeVar[E] = M.addVar(format("e%d_%s_to_%s", E,
                                   G.node(Ed.Src).Name.c_str(),
                                   G.node(Ed.Dst).Name.c_str()),
                            LeastCount, Infinity);
    ++F.CountedConstraints; // Class 1.
  }
  for (NodeId N : G.liveNodes()) {
    F.NodeVar[N] = M.addVar(format("n%d_%s", N, G.node(N).Name.c_str()), 0.0,
                            Infinity);
  }

  // Constrained-input upper bounds (Section 3.5).
  for (const auto &[N, UbNl] : Opts.NodeUpperBoundNl)
    if (F.NodeVar[N] >= 0)
      M.tightenUpper(F.NodeVar[N], UbNl / Unit);

  for (NodeId N : G.liveNodes()) {
    const Node &Nd = G.node(N);
    const std::vector<EdgeId> &In = G.inEdges(N);
    const std::vector<EdgeId> &Out = G.outEdges(N);

    // --- Class 2: maximum capacity. For producing nodes the functional
    // unit holds the sum of the in-edge volumes; input nodes hold their own
    // drawn volume in a reservoir.
    if (In.empty()) {
      M.addRow(format("cap_n%d", N), RowKind::LE, Capacity,
               {Term{F.NodeVar[N], 1.0}});
    } else {
      std::vector<Term> Terms;
      Terms.reserve(In.size());
      for (EdgeId E : In)
        Terms.push_back(Term{F.EdgeVar[E], 1.0});
      M.addRow(format("cap_n%d", N), RowKind::LE, Capacity, std::move(Terms));
    }
    ++F.CountedConstraints;

    // --- Class 3: non-deficit (sum of uses <= volume). With the ablation
    // option this becomes DAGSolve's flow-conservation equality.
    if (!Out.empty()) {
      std::vector<Term> Terms;
      Terms.reserve(Out.size() + 1);
      for (EdgeId E : Out)
        Terms.push_back(Term{F.EdgeVar[E], 1.0});
      Terms.push_back(Term{F.NodeVar[N], -1.0});
      M.addRow(format("nodeficit_n%d", N),
               Opts.FlowConservation ? RowKind::EQ : RowKind::LE, 0.0,
               std::move(Terms));
      ++F.CountedConstraints;
    }

    // --- Class 4: ratio constraints for mixes: each in-edge proportional
    // to the first (k-1 equality rows for k inputs).
    if (Nd.Kind == NodeKind::Mix && In.size() >= 2) {
      EdgeId Ref = In[0];
      double FRef = G.edge(Ref).Fraction.toDouble();
      for (size_t I = 1; I < In.size(); ++I) {
        double FI = G.edge(In[I]).Fraction.toDouble();
        // FRef * x_i - FI * x_ref = 0.
        M.addRow(format("ratio_n%d_%zu", N, I), RowKind::EQ, 0.0,
                 {Term{F.EdgeVar[In[I]], FRef}, Term{F.EdgeVar[Ref], -FI}});
        ++F.CountedConstraints;
      }
    }

    // --- Class 5: node output relative to input. Unknown-volume nodes use
    // yield 1 at compile time; their true yield is measured at run time.
    if (!In.empty()) {
      double Yield =
          Nd.UnknownVolume ? 1.0 : Nd.OutFraction.toDouble();
      std::vector<Term> Terms;
      Terms.reserve(In.size() + 1);
      Terms.push_back(Term{F.NodeVar[N], 1.0});
      for (EdgeId E : In)
        Terms.push_back(Term{F.EdgeVar[E], -Yield});
      M.addRow(format("yield_n%d", N), RowKind::EQ, 0.0, std::move(Terms));
      ++F.CountedConstraints;
    }
  }

  // --- Objective and class 6: outputs. Excess nodes are deliberate waste:
  // they are neither maximized nor balanced.
  std::vector<NodeId> Outputs;
  for (NodeId N : G.liveNodes())
    if (G.isLeaf(N) && G.node(N).Kind != NodeKind::Excess)
      Outputs.push_back(N);
  for (NodeId N : Outputs)
    M.setObjCoef(F.NodeVar[N], 1.0);

  if (Outputs.size() >= 2 && (Opts.OutputBalance || Opts.EqualOutputs)) {
    NodeId Ref = Outputs[0];
    for (size_t I = 1; I < Outputs.size(); ++I) {
      VarId O = F.NodeVar[Outputs[I]];
      VarId R = F.NodeVar[Ref];
      if (Opts.EqualOutputs) {
        M.addRow(format("eqout_%zu", I), RowKind::EQ, 0.0,
                 {Term{O, 1.0}, Term{R, -1.0}});
        ++F.CountedConstraints;
        continue;
      }
      double Lo = 1.0 - Opts.OutputBalancePct / 100.0;
      double Hi = 1.0 + Opts.OutputBalancePct / 100.0;
      // Lo*ref <= out <= Hi*ref.
      M.addRow(format("ballo_%zu", I), RowKind::GE, 0.0,
               {Term{O, 1.0}, Term{R, -Lo}});
      M.addRow(format("balhi_%zu", I), RowKind::LE, 0.0,
               {Term{O, 1.0}, Term{R, -Hi}});
      F.CountedConstraints += 2;
    }
  }

  return F;
}

VolumeAssignment aqua::core::extractAssignment(const AssayGraph &G,
                                               const Formulation &F,
                                               const lp::Solution &Sol,
                                               const FormulationOptions &Opts) {
  VolumeAssignment A;
  A.NodeVolumeNl.assign(G.numNodeSlots(), 0.0);
  A.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  if (Sol.Values.empty())
    return A;
  for (NodeId N : G.liveNodes())
    A.NodeVolumeNl[N] = Sol.Values[F.NodeVar[N]] * Opts.UnitNl;
  for (EdgeId E : G.liveEdges())
    A.EdgeVolumeNl[E] = Sol.Values[F.EdgeVar[E]] * Opts.UnitNl;
  return A;
}

LPVolumeResult aqua::core::solveRVolLP(const AssayGraph &G,
                                       const MachineSpec &Spec,
                                       const FormulationOptions &FOpts,
                                       const lp::SolverOptions &SOpts) {
  LPVolumeResult R;
  Formulation F = buildVolumeModel(G, Spec, FOpts);
  R.CountedConstraints = F.CountedConstraints;
  R.Solution = lp::solve(F.Model, SOpts, &R.Info);
  R.Volumes = extractAssignment(G, F, R.Solution, FOpts);
  return R;
}
