//===- Partition.cpp - Statically-unknown volumes ------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/Partition.h"

#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <map>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

namespace {

/// Minimal union-find over node slots.
class UnionFind {
public:
  explicit UnionFind(int N) : Parent(N) {
    for (int I = 0; I < N; ++I)
      Parent[I] = I;
  }
  int find(int X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  void merge(int A, int B) { Parent[find(A)] = find(B); }

private:
  std::vector<int> Parent;
};

} // namespace

Expected<PartitionPlan>
aqua::core::buildPartitionPlan(const AssayGraph &G,
                               [[maybe_unused]] const MachineSpec &Spec) {
  if (Status S = G.verify(); !S.ok())
    return Expected<PartitionPlan>::error("invalid assay graph: " +
                                          S.message());

  PartitionPlan Plan;
  Plan.Graph = G;
  AssayGraph &PG = Plan.Graph;

  // ----- Execution waves: crossing an unknown-volume node's output bumps
  // the wave, because everything beyond it dispenses only after the
  // measurement.
  std::vector<int> Wave(PG.numNodeSlots(), 0);
  for (NodeId N : PG.topologicalOrder())
    for (EdgeId E : PG.inEdges(N)) {
      NodeId Src = PG.edge(E).Src;
      int W = Wave[Src] + (PG.node(Src).UnknownVolume ? 1 : 0);
      Wave[N] = std::max(Wave[N], W);
    }

  // ----- Cut set: a produced node with a use in a later wave cannot wait
  // for that use's volume to become known, so all its out-edges are cut and
  // its output is split conservatively across its N uses (Figure 8).
  std::vector<char> CutAllOut(PG.numNodeSlots(), 0);
  for (NodeId N : PG.liveNodes()) {
    if (PG.node(N).Kind == NodeKind::Input)
      continue;
    for (EdgeId E : PG.outEdges(N))
      if (Wave[PG.edge(E).Dst] > Wave[N])
        CutAllOut[N] = 1;
  }

  // ----- Connected components, with cut edges and input-node out-edges
  // excluded so that partitions don't merge through split fluids. One
  // exception: an input whose consumers all dispense at wave 0 and are not
  // themselves cut is a purely compile-time fluid -- merging through it
  // keeps the static part of the assay a single partition (a fully static
  // assay like glucose must come out as exactly one partition).
  UnionFind UF(PG.numNodeSlots() + 8 * PG.numEdgeSlots() + 64);
  for (EdgeId E : PG.liveEdges()) {
    const Edge &Ed = PG.edge(E);
    if (CutAllOut[Ed.Src])
      continue;
    if (PG.node(Ed.Src).Kind == NodeKind::Input) {
      bool AllStaticConsumers = true;
      for (EdgeId OE : PG.outEdges(Ed.Src)) {
        NodeId Dst = PG.edge(OE).Dst;
        if (Wave[Dst] != 0 || CutAllOut[Dst])
          AllStaticConsumers = false;
      }
      if (!AllStaticConsumers)
        continue;
    }
    UF.merge(Ed.Src, Ed.Dst);
  }

  // ----- Rewire cut produced nodes through constrained inputs, one per
  // consumer partition (the paper's m/N refinement).
  for (NodeId N : PG.liveNodes()) {
    if (!CutAllOut[N])
      continue;
    // A copy: setEdgeSource below rewrites N's list.
    std::vector<EdgeId> Outs = PG.outEdges(N);
    std::int64_t Uses = static_cast<std::int64_t>(Outs.size());
    std::map<int, std::vector<EdgeId>> ByComp;
    for (EdgeId E : Outs)
      ByComp[UF.find(PG.edge(E).Dst)].push_back(E);
    for (auto &[Comp, Group] : ByComp) {
      (void)Comp;
      NodeId CI = PG.addNode(NodeKind::Input, PG.node(N).Name + "'");
      for (EdgeId E : Group) {
        PG.setEdgeSource(E, CI);
        UF.merge(CI, PG.edge(E).Dst);
      }
      PartitionPlan::ConstrainedInput In;
      In.Node = CI;
      In.Source = N;
      In.Share =
          Rational(static_cast<std::int64_t>(Group.size()), Uses);
      In.FromInputPort = false;
      Plan.Inputs.push_back(In);
    }
  }

  // ----- Input fluids: an input used by a single partition simply belongs
  // to it; one spanning several partitions is split by use count
  // (buffer3a -> two 50 nl constrained inputs in glycomics).
  for (NodeId N : PG.liveNodes()) {
    if (PG.node(N).Kind != NodeKind::Input)
      continue;
    // A copy: setEdgeSource below rewrites N's list.
    std::vector<EdgeId> Outs = PG.outEdges(N);
    if (Outs.empty())
      continue;
    std::map<int, std::vector<EdgeId>> ByComp;
    for (EdgeId E : Outs)
      ByComp[UF.find(PG.edge(E).Dst)].push_back(E);
    if (ByComp.size() <= 1) {
      UF.merge(N, PG.edge(Outs[0]).Dst);
      continue;
    }
    std::int64_t Uses = static_cast<std::int64_t>(Outs.size());
    for (auto &[Comp, Group] : ByComp) {
      (void)Comp;
      NodeId CI = PG.addNode(NodeKind::Input,
                             format("%s/%zu", PG.node(N).Name.c_str(),
                                    Group.size()));
      for (EdgeId E : Group) {
        PG.setEdgeSource(E, CI);
        UF.merge(CI, PG.edge(E).Dst);
      }
      PartitionPlan::ConstrainedInput In;
      In.Node = CI;
      In.Source = N;
      In.Share = Rational(static_cast<std::int64_t>(Group.size()), Uses);
      In.FromInputPort = true;
      Plan.Inputs.push_back(In);
    }
    PG.removeNode(N);
  }

  // ----- Compile-time Vnorms over the whole partitioned graph; each
  // partition's leaves independently normalize to 1.
  computeVnorms(PG, DagSolveOptions{}, Plan.Vnorms);

  // ----- Assemble partitions ordered by wave.
  std::map<int, int> CompToPart;
  Plan.NodePartition.assign(PG.numNodeSlots(), -1);
  std::vector<PartitionPlan::Part> Parts;
  for (NodeId N : PG.liveNodes()) {
    int Comp = UF.find(N);
    auto [It, Fresh] = CompToPart.try_emplace(Comp, Parts.size());
    if (Fresh)
      Parts.push_back(PartitionPlan::Part{});
    PartitionPlan::Part &P = Parts[It->second];
    P.Members.push_back(N);
    if (N < static_cast<int>(Wave.size()))
      P.Wave = std::max(P.Wave, Wave[N]);
    Rational InV = nodeInputVnorm(PG, N, Plan.Vnorms);
    P.MaxInputVnorm = max(P.MaxInputVnorm, InV);
    Plan.NodePartition[N] = It->second;
  }
  // Constrained-input nodes created after the wave pass inherit their
  // consumers' wave; recompute each part's wave from original members only
  // (done above: new nodes have N >= Wave.size()).
  for (size_t I = 0; I < Plan.Inputs.size(); ++I) {
    int PartIdx = Plan.NodePartition[Plan.Inputs[I].Node];
    Parts[PartIdx].InputRefs.push_back(static_cast<int>(I));
  }

  // Order partitions so every constrained input's producing partition
  // executes first. Wave order usually achieves this, but same-wave
  // partitions can feed one another (a cut fluid consumed by a sibling
  // component), so we topologically sort the partition dependency graph
  // with wave as the tie-break; a dependency cycle (only possible between
  // mutually-feeding same-wave partitions) falls back to wave order and
  // is resolved at run time by the executor's measured-before-consumed
  // check.
  std::vector<int> Order;
  {
    size_t Count = Parts.size();
    std::vector<std::vector<int>> Succ(Count);
    std::vector<int> Pending(Count, 0);
    for (const auto &CI : Plan.Inputs) {
      if (CI.FromInputPort)
        continue;
      int Src = Plan.NodePartition[CI.Source];
      int Dst = Plan.NodePartition[CI.Node];
      if (Src == Dst)
        continue; // Same-partition input: scale-invariant, no ordering.
      Succ[Src].push_back(Dst);
      ++Pending[Dst];
    }
    // Kahn with min-(wave, id) selection for determinism.
    std::vector<char> Emitted(Count, 0);
    while (Order.size() < Count) {
      int Best = -1;
      for (size_t I = 0; I < Count; ++I) {
        if (Emitted[I] || Pending[I] > 0)
          continue;
        if (Best < 0 || Parts[I].Wave < Parts[Best].Wave)
          Best = static_cast<int>(I);
      }
      if (Best < 0)
        break; // Cycle: fall back to wave order for the rest.
      Emitted[Best] = 1;
      Order.push_back(Best);
      for (int S : Succ[Best])
        --Pending[S];
    }
    for (size_t I = 0; I < Count; ++I)
      if (!Emitted[I])
        Order.push_back(static_cast<int>(I));
  }
  std::vector<int> NewIndex(Parts.size());
  for (size_t I = 0; I < Order.size(); ++I)
    NewIndex[Order[I]] = static_cast<int>(I);
  std::vector<PartitionPlan::Part> Sorted(Parts.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Sorted[I] = std::move(Parts[Order[I]]);
  Plan.Parts = std::move(Sorted);
  for (NodeId N = 0; N < PG.numNodeSlots(); ++N)
    if (Plan.NodePartition[N] >= 0)
      Plan.NodePartition[N] = NewIndex[Plan.NodePartition[N]];

  return Plan;
}

VolumeAssignment
aqua::core::dispensePartition(const PartitionPlan &Plan, int PartIndex,
                              const std::vector<double> &AvailableNl,
                              const MachineSpec &Spec) {
  assert(PartIndex >= 0 &&
         PartIndex < static_cast<int>(Plan.Parts.size()) &&
         "bad partition index");
  const PartitionPlan::Part &P = Plan.Parts[PartIndex];
  const AssayGraph &PG = Plan.Graph;

  // Capacity-driven scale, then clamp by every constrained input's
  // available/Vnorm ratio (Section 3.5: "we compute the minimum ratio of
  // each input's Vnorm and the available input volume").
  double Scale = P.MaxInputVnorm.isZero()
                     ? 0.0
                     : Spec.MaxCapacityNl / P.MaxInputVnorm.toDouble();
  for (int Ref : P.InputRefs) {
    const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
    // A constrained input whose source lives in this same partition is
    // scale-invariant: both sides scale together, so the constraint
    // Vnorm(CI) <= Share * Vnorm(Source) either always holds or never
    // does (the latter means regeneration territory: dispense nothing).
    if (!CI.FromInputPort &&
        Plan.NodePartition[CI.Source] == PartIndex) {
      if (Plan.Vnorms.NodeVnorm[CI.Node] >
          CI.Share * Plan.Vnorms.NodeVnorm[CI.Source])
        Scale = 0.0;
      continue;
    }
    double Avail = Ref < static_cast<int>(AvailableNl.size())
                       ? AvailableNl[Ref]
                       : -1.0;
    if (Avail < 0.0) {
      assert(CI.FromInputPort &&
             "produced-source constrained input needs a measured volume");
      Avail = CI.Share.toDouble() * Spec.MaxCapacityNl;
    }
    double V = Plan.Vnorms.NodeVnorm[CI.Node].toDouble();
    if (V > 0.0)
      Scale = std::min(Scale, Avail / V);
  }

  VolumeAssignment A;
  A.NodeVolumeNl.assign(PG.numNodeSlots(), 0.0);
  A.EdgeVolumeNl.assign(PG.numEdgeSlots(), 0.0);
  for (NodeId N : P.Members) {
    A.NodeVolumeNl[N] = Plan.Vnorms.NodeVnorm[N].toDouble() * Scale;
    for (EdgeId E : PG.inEdges(N))
      A.EdgeVolumeNl[E] = Plan.Vnorms.EdgeVnorm[E].toDouble() * Scale;
  }
  return A;
}

std::string PartitionPlan::str() const {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    const Part &P = Parts[I];
    Out += format("partition %zu (wave %d, max input Vnorm %s):\n", I,
                  P.Wave, P.MaxInputVnorm.str().c_str());
    for (NodeId N : P.Members)
      Out += format("  n%-3d %-9s %-20s Vnorm %s\n", N,
                    nodeKindName(Graph.node(N).Kind),
                    Graph.node(N).Name.c_str(),
                    Vnorms.NodeVnorm[N].str().c_str());
    for (int Ref : P.InputRefs) {
      const ConstrainedInput &CI = Inputs[Ref];
      Out += format("  constrained input n%d '%s' <- %s of %s%s\n", CI.Node,
                    Graph.node(CI.Node).Name.c_str(), CI.Share.str().c_str(),
                    CI.Source != InvalidNode
                        ? Graph.node(CI.Source).Name.c_str()
                        : "?",
                    CI.FromInputPort ? " (input port)" : " (measured)");
    }
  }
  return Out;
}
