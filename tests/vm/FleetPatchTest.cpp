//===- FleetPatchTest.cpp - The fleet's template-patching contract ---------------===//
//
// Part of AquaVol. MIT license.
//
// A chip re-meters a segment by patching the template's volume table, and
// only when codegen::residueShape of its volumes equals the template's.
// That is sound only if equal shapes mean an equal instruction stream: the
// property test below checks it over every segment of the perfbench
// fleet_exec images and many perturbed meterings.
//
//===----------------------------------------------------------------------===//

#include "aqua/vm/Fleet.h"

#include "aqua/assays/ExtraAssays.h"
#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Rounding.h"
#include "aqua/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace aqua::vm;

namespace {

struct NamedImage {
  const char *Name;
  FleetImage Image;
};

/// The seven images perfbench's fleet_exec runs.
std::vector<NamedImage> fleetExecImages() {
  MachineSpec Small, Big;
  Big.MaxCapacityNl = 1000.0;
  std::vector<std::pair<const char *, std::pair<AssayGraph, MachineSpec>>>
      Assays = {{"glucose", {assays::buildGlucoseAssay(), Small}},
                {"glycomics", {assays::buildGlycomicsAssay(), Small}},
                {"enzyme", {assays::buildEnzymeAssay(), Big}},
                {"enzyme_n2", {assays::buildEnzymeAssay(2, 2), Small}},
                {"pcr", {assays::buildPcrMasterMix(), Small}},
                {"mic", {assays::buildMicPanel(), Small}},
                {"immuno", {assays::buildImmunoassay(), Small}}};
  std::vector<NamedImage> Out;
  for (auto &[Name, A] : Assays) {
    auto Img = compileFleetImage(A.first, A.second);
    EXPECT_TRUE(Img.ok()) << Name << ": " << Img.message();
    if (Img.ok())
      Out.push_back({Name, std::move(*Img)});
  }
  return Out;
}

/// The template's metered edge volumes, read back from its volume table.
VolumeAssignment templateVolumes(const FleetSegment &Seg) {
  VolumeAssignment V;
  V.NodeVolumeNl.assign(Seg.SubG.numNodeSlots(), 0.0);
  V.EdgeVolumeNl.assign(Seg.SubG.numEdgeSlots(), 0.0);
  for (std::size_t J = 0; J < Seg.MeteredEdgeOfInstr.size(); ++J)
    if (EdgeId E = Seg.MeteredEdgeOfInstr[J]; E >= 0)
      V.EdgeVolumeNl[E] = Seg.Prog.VolumeTable[Seg.Prog.Code[J].VolIdx];
  return V;
}

codegen::AISProgram generate(const AssayGraph &G, const VolumeAssignment &V,
                             std::vector<EdgeId> &EdgeOf) {
  codegen::CodegenOptions CG;
  CG.Mode = codegen::VolumeMode::Managed;
  CG.Volumes = &V;
  CG.EdgeOfInstr = &EdgeOf;
  auto P = codegen::generateAIS(G, {}, CG);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : codegen::AISProgram();
}

/// A metering of \p Seg's subgraph near \p Base (in least-count units):
/// scaled edges, one balanced node (its real out-volume set equal to its
/// in-volume, which flips a residue decision to "none"), or one grown edge.
std::vector<std::int64_t> perturb(const AssayGraph &G,
                                  std::vector<std::int64_t> U,
                                  SplitMix64 &Rng) {
  switch (Rng.nextInRange(0, 2)) {
  case 0:
    for (std::int64_t &X : U)
      X = std::max<std::int64_t>(
          1, std::llround(static_cast<double>(X) * (0.5 + 1.5 * Rng.nextUnit())));
    break;
  case 1: {
    std::vector<NodeId> Candidates;
    for (NodeId N : G.liveNodes()) {
      if (G.inEdges(N).empty())
        continue;
      for (EdgeId E : G.outEdges(N))
        if (G.node(G.edge(E).Dst).Kind != NodeKind::Excess) {
          Candidates.push_back(N);
          break;
        }
    }
    if (Candidates.empty())
      break;
    NodeId N = Candidates[Rng.nextInRange(0, Candidates.size() - 1)];
    std::int64_t In = 0;
    for (EdgeId E : G.inEdges(N))
      In += U[E];
    std::vector<EdgeId> Outs;
    for (EdgeId E : G.outEdges(N))
      if (G.node(G.edge(E).Dst).Kind != NodeKind::Excess)
        Outs.push_back(E);
    if (In < static_cast<std::int64_t>(Outs.size()))
      break;
    for (EdgeId E : Outs)
      U[E] = 1;
    U[Outs.front()] += In - static_cast<std::int64_t>(Outs.size());
    break;
  }
  default:
    U[Rng.nextInRange(0, U.size() - 1)] += Rng.nextInRange(1, 3);
    break;
  }
  return U;
}

} // namespace

TEST(FleetPatchProperty, EqualResidueShapeMeansTemplateInstructionStream) {
  constexpr int Trials = 120;
  int Matched = 0, Differed = 0;
  for (NamedImage &NI : fleetExecImages()) {
    const MachineSpec &Spec = NI.Image.Spec;
    for (std::size_t P = 0; P < NI.Image.Segments.size(); ++P) {
      const FleetSegment &Seg = NI.Image.Segments[P];
      SCOPED_TRACE(std::string(NI.Name) + " segment " + std::to_string(P));
      const AssayGraph &G = Seg.SubG;

      // The template's stream, regenerated from its own volumes.
      VolumeAssignment Base = templateVolumes(Seg);
      ASSERT_EQ(codegen::residueShape(G, Base), Seg.ResidueShape);
      std::vector<EdgeId> TemplateEdgeOf;
      codegen::AISProgram Template = generate(G, Base, TemplateEdgeOf);
      ASSERT_EQ(TemplateEdgeOf, Seg.MeteredEdgeOfInstr);
      ASSERT_EQ(Template.Instrs.size(), Seg.Prog.Code.size());

      std::vector<std::int64_t> BaseUnits(G.numEdgeSlots(), 1);
      for (EdgeId E = 0; E < G.numEdgeSlots(); ++E)
        BaseUnits[E] = std::max<std::int64_t>(
            1, std::llround(Base.EdgeVolumeNl[E] / Spec.LeastCountNl));

      SplitMix64 Rng(0xf1ee7ULL * 131 + P * 7919 + Seg.Prog.Code.size());
      for (int T = 0; T < Trials; ++T) {
        std::vector<std::int64_t> U = perturb(G, BaseUnits, Rng);
        VolumeAssignment V;
        V.NodeVolumeNl.assign(G.numNodeSlots(), 0.0);
        V.EdgeVolumeNl.resize(U.size());
        for (std::size_t E = 0; E < U.size(); ++E)
          V.EdgeVolumeNl[E] = static_cast<double>(U[E]) * Spec.LeastCountNl;
        if (codegen::residueShape(G, V) != Seg.ResidueShape) {
          ++Differed;
          continue;
        }
        ++Matched;
        std::vector<EdgeId> EdgeOf;
        codegen::AISProgram Got = generate(G, V, EdgeOf);
        ASSERT_EQ(EdgeOf, TemplateEdgeOf) << "trial " << T;
        ASSERT_EQ(Got.Instrs.size(), Template.Instrs.size()) << "trial " << T;
        for (std::size_t J = 0; J < Got.Instrs.size(); ++J) {
          const codegen::Instruction &A = Got.Instrs[J];
          const codegen::Instruction &B = Template.Instrs[J];
          SCOPED_TRACE("trial " + std::to_string(T) + " instruction " +
                       std::to_string(J));
          ASSERT_EQ(A.Op, B.Op);
          ASSERT_TRUE(A.Dst == B.Dst && A.Src == B.Src);
          ASSERT_EQ(A.RelParts, B.RelParts);
          ASSERT_EQ(A.Seconds, B.Seconds);
          ASSERT_EQ(A.TempC, B.TempC);
          ASSERT_EQ(A.Note, B.Note);
          ASSERT_EQ(A.Node, B.Node);
          if (EdgeOf[J] >= 0)
            ASSERT_EQ(A.VolumeNl, V.EdgeVolumeNl[EdgeOf[J]]);
          else
            ASSERT_EQ(A.VolumeNl, B.VolumeNl);
        }
      }
    }
  }
  // Both branches of the guard were exercised.
  EXPECT_GT(Matched, 0);
  EXPECT_GT(Differed, 0);
}

TEST(FleetPatch, NominalYieldChipPatchesTheTemplateVolumes) {
  // The image compile meters every template at the nominal yield 0.45
  // through the same step a chip runs; a chip at that fixed yield must
  // reproduce each template's metering exactly and never recompile.
  MachineSpec Spec;
  for (AssayGraph G :
       {assays::buildGlycomicsAssay(), assays::buildImmunoassay()}) {
    auto Img = compileFleetImage(G, Spec);
    ASSERT_TRUE(Img.ok()) << Img.message();
    FleetOptions FO;
    FO.FixedSeparationYield = 0.45;
    ChipResult Chip = runChip(*Img, FO, 0x5eed);
    ASSERT_TRUE(Chip.Completed) << Chip.Error;
    EXPECT_EQ(Chip.SegmentRecompiles, 0);
    EXPECT_EQ(Chip.OnlineRemanages, 0);

    for (const FleetSegment &Seg : Img->Segments) {
      // The chip's dispensed volumes for this segment, metered.
      VolumeAssignment Dispensed;
      for (NodeId N : Seg.ToPlanNode)
        Dispensed.NodeVolumeNl.push_back(Chip.Volumes.NodeVolumeNl[N]);
      for (EdgeId E : Seg.ToPlanEdge)
        Dispensed.EdgeVolumeNl.push_back(Chip.Volumes.EdgeVolumeNl[E]);
      VolumeAssignment Patched = integerToNl(
          Seg.SubG, roundToLeastCount(Seg.SubG, Dispensed, Spec), Spec);
      int Metered = 0;
      for (std::size_t J = 0; J < Seg.MeteredEdgeOfInstr.size(); ++J)
        if (EdgeId E = Seg.MeteredEdgeOfInstr[J]; E >= 0) {
          EXPECT_EQ(Patched.EdgeVolumeNl[E],
                    Seg.Prog.VolumeTable[Seg.Prog.Code[J].VolIdx]);
          ++Metered;
        }
      EXPECT_GT(Metered, 0);
    }
  }
}
