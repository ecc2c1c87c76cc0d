//===- ReferencePartitioned.cpp - Reference run-time dispensing ------------------===//
//
// Part of AquaVol. MIT license.
//
// Section 3.5 end to end, the plain way: the compile-time partition plan's
// Vnorms stay fixed, and each partition is dispensed, rounded,
// code-generated and simulated on the reference in wave order; the
// measured output of every unknown-volume operation feeds the constrained
// inputs of the partitions that consume it. vm::runChip with online
// re-management off must reproduce it bit for bit.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Reference.h"

#include "aqua/codegen/Codegen.h"
#include "aqua/core/Rounding.h"
#include "aqua/support/Random.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace aqua::check;
using vm::ChipResult;

namespace {

/// One partition extracted as a standalone graph (constrained inputs
/// become ordinary Input nodes), with maps back to the plan's ids.
struct SubGraph {
  AssayGraph G;
  std::vector<NodeId> ToPlanNode;            // Subgraph id -> plan id.
  std::map<NodeId, NodeId> FromPlanNode;     // Plan id -> subgraph id.
  std::vector<EdgeId> ToPlanEdge;
};

SubGraph extractPartition(const PartitionPlan &Plan, int PartIndex) {
  const AssayGraph &PG = Plan.Graph;
  SubGraph S;
  std::vector<NodeId> Members = Plan.Parts[PartIndex].Members;
  std::sort(Members.begin(), Members.end());
  for (NodeId N : Members) {
    const Node &Src = PG.node(N);
    NodeId Clone = S.G.addNode(Src.Kind, Src.Name);
    Node &Dst = S.G.node(Clone);
    Dst.OutFraction = Src.OutFraction;
    Dst.UnknownVolume = Src.UnknownVolume;
    Dst.NoExcess = Src.NoExcess;
    Dst.ExcessShare = Src.ExcessShare;
    Dst.Params = Src.Params;
    S.ToPlanNode.push_back(N);
    S.FromPlanNode[N] = Clone;
  }
  for (NodeId N : Members)
    for (EdgeId E : PG.inEdges(N)) {
      const Edge &Ed = PG.edge(E);
      assert(S.FromPlanNode.count(Ed.Src) &&
             "partition member consumes a non-member value");
      S.G.addEdge(S.FromPlanNode[Ed.Src], S.FromPlanNode[N], Ed.Fraction);
      S.ToPlanEdge.push_back(E);
    }
  return S;
}

} // namespace

ChipResult
aqua::check::referenceExecutePartitioned(const PartitionPlan &Plan,
                                         const MachineSpec &Spec,
                                         const vm::RunOptions &Opts) {
  ChipResult Result;
  Result.Volumes.NodeVolumeNl.assign(Plan.Graph.numNodeSlots(), 0.0);
  Result.Volumes.EdgeVolumeNl.assign(Plan.Graph.numEdgeSlots(), 0.0);

  SplitMix64 Yields(Opts.Seed ^ 0xa55aULL);
  auto DrawYield = [&] {
    if (Opts.FixedSeparationYield >= 0.0)
      return Opts.FixedSeparationYield;
    return Opts.MinSeparationYield +
           (Opts.MaxSeparationYield - Opts.MinSeparationYield) *
               Yields.nextUnit();
  };

  std::map<NodeId, double> MeasuredByPlanNode;
  std::vector<double> Available(Plan.Inputs.size(), -1.0);

  for (size_t P = 0; P < Plan.Parts.size(); ++P) {
    // ----- Constrained-input availability from earlier measurements.
    for (int Ref : Plan.Parts[P].InputRefs) {
      const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
      if (CI.FromInputPort)
        continue; // Share * capacity, handled by dispensePartition.
      if (Plan.NodePartition[CI.Source] == static_cast<int>(P))
        continue; // Same-partition input: scale-invariant.
      auto It = MeasuredByPlanNode.find(CI.Source);
      if (It == MeasuredByPlanNode.end()) {
        Result.Error = format(
            "partition %zu consumes '%s' before it was measured", P,
            Plan.Graph.node(CI.Source).Name.c_str());
        return Result;
      }
      Available[Ref] = CI.Share.toDouble() * It->second;
    }

    // ----- Run-time dispensing (fast electronic control).
    VolumeAssignment V =
        dispensePartition(Plan, static_cast<int>(P), Available, Spec);
    for (NodeId N : Plan.Parts[P].Members) {
      Result.Volumes.NodeVolumeNl[N] = V.NodeVolumeNl[N];
      for (EdgeId E : Plan.Graph.inEdges(N))
        Result.Volumes.EdgeVolumeNl[E] = V.EdgeVolumeNl[E];
    }

    // ----- Extract, round, code-generate and simulate this partition.
    SubGraph Sub = extractPartition(Plan, static_cast<int>(P));
    VolumeAssignment SubV;
    SubV.NodeVolumeNl.assign(Sub.G.numNodeSlots(), 0.0);
    SubV.EdgeVolumeNl.assign(Sub.G.numEdgeSlots(), 0.0);
    for (int I = 0; I < Sub.G.numNodeSlots(); ++I)
      SubV.NodeVolumeNl[I] = V.NodeVolumeNl[Sub.ToPlanNode[I]];
    for (int I = 0; I < Sub.G.numEdgeSlots(); ++I)
      SubV.EdgeVolumeNl[I] = V.EdgeVolumeNl[Sub.ToPlanEdge[I]];

    IntegerAssignment IVol = roundToLeastCount(Sub.G, SubV, Spec);
    if (IVol.Underflow) {
      Result.Error = format(
          "partition %zu underflows the least count after dispensing "
          "(scarce upstream measurement); regeneration of the producing "
          "slice is required",
          P);
      return Result;
    }
    VolumeAssignment Metered = integerToNl(Sub.G, IVol, Spec);

    codegen::CodegenOptions CG;
    CG.Mode = codegen::VolumeMode::Managed;
    CG.Volumes = &Metered;
    auto Prog = codegen::generateAIS(Sub.G, {}, CG);
    if (!Prog.ok()) {
      Result.Error =
          format("partition %zu codegen: %s", P, Prog.message().c_str());
      return Result;
    }

    vm::CompileOptions SubCO;
    SubCO.Spec = Spec;
    SubCO.Graph = &Sub.G;
    vm::RunOptions SubRO = Opts;
    SubRO.Seed = Opts.Seed + 17 * P;
    vm::SimResult Run = referenceSimulate(*Prog, SubCO, SubRO);
    if (!Run.Completed) {
      Result.Error = format("partition %zu: %s", P, Run.Error.c_str());
      return Result;
    }
    Result.FluidSeconds += Run.FluidSeconds;
    Result.Regenerations += Run.Regenerations;
    for (vm::SenseReading &Reading : Run.Senses)
      Result.Senses.push_back(std::move(Reading));
    ++Result.PartitionsExecuted;

    // ----- Publish this partition's outputs to later constrained inputs:
    // unknown-volume operations are "measured" (RNG yield standing in for
    // the on-chip volume sensor); known-volume cut fluids simply report
    // their dispensed volume (the Figure 8 case).
    for (NodeId N : Plan.Parts[P].Members) {
      const Node &Nd = Plan.Graph.node(N);
      bool FeedsConstrainedInput = false;
      for (const PartitionPlan::ConstrainedInput &CI : Plan.Inputs)
        if (CI.Source == N)
          FeedsConstrainedInput = true;
      if (!FeedsConstrainedInput)
        continue;
      double Measured;
      if (Nd.UnknownVolume) {
        double InputVol = 0.0;
        for (EdgeId E : Plan.Graph.inEdges(N))
          InputVol += Result.Volumes.EdgeVolumeNl[E];
        Measured = InputVol * DrawYield();
      } else {
        Measured = Result.Volumes.NodeVolumeNl[N];
      }
      MeasuredByPlanNode[N] = Measured;
      Result.MeasuredNl[Nd.Name] = Measured;
    }
  }

  Result.Completed = true;
  return Result;
}
