//===- VMEquivalenceTest.cpp - VM vs tree-walking reference ----------------------===//
//
// Part of AquaVol. MIT license.
//
// The bytecode VM's contract is bit-for-bit behavioral equivalence with
// aqua/check's tree-walking reference under the same options: every
// volume, wet-time second, RNG draw, counter, sense reading, and error
// string identical. These tests enforce it with exact (==) floating-point
// comparison across the paper assays in both volume regimes, including
// regeneration-heavy and failing runs.
//
//===----------------------------------------------------------------------===//

#include "aqua/vm/VM.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/check/Reference.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Manager.h"
#include "aqua/core/Rounding.h"
#include "aqua/service/Pipeline.h"
#include "aqua/vm/Compiler.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::codegen;
using namespace aqua::core;
using namespace aqua::ir;
using namespace aqua::vm;

namespace {

/// Exact SimResult equality: doubles compared with ==, maps and strings
/// elementwise.
void expectBitEqual(const SimResult &Sim, const SimResult &Vm) {
  EXPECT_EQ(Sim.Completed, Vm.Completed);
  EXPECT_EQ(Sim.Error, Vm.Error);
  EXPECT_EQ(Sim.Regenerations, Vm.Regenerations);
  EXPECT_EQ(Sim.UnderflowEvents, Vm.UnderflowEvents);
  EXPECT_EQ(Sim.OverflowEvents, Vm.OverflowEvents);
  EXPECT_EQ(Sim.SubLeastCountMoves, Vm.SubLeastCountMoves);
  EXPECT_EQ(Sim.InstructionsExecuted, Vm.InstructionsExecuted);
  EXPECT_EQ(Sim.FluidSeconds, Vm.FluidSeconds);
  EXPECT_EQ(Sim.InputDrawnNl, Vm.InputDrawnNl);
  EXPECT_EQ(Sim.DeliveredNl, Vm.DeliveredNl);
  EXPECT_EQ(Sim.WasteNl, Vm.WasteNl);
  ASSERT_EQ(Sim.Senses.size(), Vm.Senses.size());
  for (std::size_t I = 0; I < Sim.Senses.size(); ++I) {
    EXPECT_EQ(Sim.Senses[I].Name, Vm.Senses[I].Name);
    EXPECT_EQ(Sim.Senses[I].VolumeNl, Vm.Senses[I].VolumeNl);
    EXPECT_EQ(Sim.Senses[I].Composition, Vm.Senses[I].Composition);
  }
}

/// Runs \p P through both engines under \p CO and \p RO and checks
/// equivalence.
void runBoth(const AISProgram &P, const CompileOptions &CO,
             const RunOptions &RO = {}) {
  SimResult Sim = check::referenceSimulate(P, CO, RO);

  auto BC = vm::compile(P, CO);
  ASSERT_TRUE(BC.ok()) << BC.message();
  SimResult Vm = vm::run(*BC, RO);

  expectBitEqual(Sim, Vm);
}

AISProgram managedProgram(const AssayGraph &G, const VolumeAssignment &RVol) {
  IntegerAssignment IV = roundToLeastCount(G, RVol, MachineSpec{});
  VolumeAssignment Metered = integerToNl(G, IV, MachineSpec{});
  CodegenOptions CG;
  CG.Mode = VolumeMode::Managed;
  CG.Volumes = &Metered;
  auto P = generateAIS(G, MachineLayout{}, CG);
  EXPECT_TRUE(P.ok()) << P.message();
  return *P;
}

} // namespace

TEST(VMEquivalence, GlucoseRelativeWithRegeneration) {
  AssayGraph G = assays::buildGlucoseAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  CompileOptions CO;
  CO.Graph = &G;
  runBoth(*P, CO);
}

TEST(VMEquivalence, GlucoseManaged) {
  AssayGraph G = assays::buildGlucoseAssay();
  DagSolveResult R = dagSolve(G, MachineSpec{});
  ASSERT_TRUE(R.Feasible);
  AISProgram P = managedProgram(G, R.Volumes);
  CompileOptions CO;
  CO.Graph = &G;
  runBoth(P, CO);
}

TEST(VMEquivalence, EnzymeRelativeRegenerationHeavy) {
  // The paper's regeneration-heavy baseline: dozens of slice replays, each
  // with stash/restore of functional-unit contents -- the hardest state to
  // keep bit-identical.
  AssayGraph G = assays::buildEnzymeAssay(4);
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  CompileOptions CO;
  CO.Graph = &G;
  runBoth(*P, CO);
}

TEST(VMEquivalence, EnzymeManagedCascaded) {
  service::CompileArtifact A =
      service::compileGraph(assays::buildEnzymeAssay(4), {}, {}, {});
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(A.Managed);
  CompileOptions CO;
  CO.Graph = &A.VM.Graph;
  runBoth(A.Program, CO);
}

TEST(VMEquivalence, GlycomicsYieldStreamAcrossSeeds) {
  // Separation yields come from the seeded RNG: the VM must consume draws
  // at exactly the simulator's sites, for any seed.
  AssayGraph G = assays::buildGlycomicsAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  for (std::uint64_t Seed : {0x5eedULL, 1ULL, 999ULL, 0xdeadbeefULL}) {
    CompileOptions CO;
    CO.Graph = &G;
    RunOptions RO;
    RO.Seed = Seed;
    runBoth(*P, CO, RO);
  }
}

TEST(VMEquivalence, GlycomicsFixedYield) {
  AssayGraph G = assays::buildGlycomicsAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  CompileOptions CO;
  CO.Graph = &G;
  RunOptions RO;
  RO.FixedSeparationYield = 0.5;
  runBoth(*P, CO, RO);
}

TEST(VMEquivalence, NaiveWithoutRegenerationLimpsIdentically) {
  // Disabled regeneration shorts transfers instead of failing; underflow
  // bookkeeping and downstream compositions must still match exactly.
  AssayGraph G = assays::buildGlucoseAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  CompileOptions CO;
  CO.Graph = &G;
  RunOptions RO;
  RO.EnableRegeneration = false;
  runBoth(*P, CO, RO);
}

TEST(VMEquivalence, NoGraphRegenerationRegime) {
  // Without the assay graph only input re-draws can regenerate; failure
  // modes (and their error text) must match the simulator's.
  AssayGraph G = assays::buildGlucoseAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  CompileOptions CO; // CO.Graph stays null.
  runBoth(*P, CO);
}

TEST(VMEquivalence, RegenerationExhaustedErrorMatches) {
  // A managed program demanding more than the mixer can ever hold:
  // regeneration tops the mixer up to capacity but never reaches the
  // demand, so the retry loop exhausts and both engines must fail with
  // the same formatted message (instruction index, shortfall, source
  // rendering).
  AssayGraph G;
  NodeId A = G.addInput("A");
  NodeId B = G.addInput("B");
  NodeId M = G.addMix("M", {{A, 1}, {B, 1}});
  G.addUnary(NodeKind::Sense, "sense_R_1", M);

  VolumeAssignment V;
  V.NodeVolumeNl.assign(G.numNodeSlots(), 10.0);
  V.EdgeVolumeNl.assign(G.numEdgeSlots(), 0.0);
  auto Edges = G.liveEdges();
  V.EdgeVolumeNl[Edges[0]] = 5.0;
  V.EdgeVolumeNl[Edges[1]] = 5.0;
  V.EdgeVolumeNl[Edges[2]] = 500.0; // The mixer caps at 100 nl.

  CodegenOptions CG;
  CG.Mode = VolumeMode::Managed;
  CG.Volumes = &V;
  auto P = generateAIS(G, MachineLayout{}, CG);
  ASSERT_TRUE(P.ok());

  CompileOptions CO;
  CO.Graph = &G;
  SimResult Sim = check::referenceSimulate(*P, CO, {});
  ASSERT_FALSE(Sim.Completed);
  EXPECT_NE(Sim.Error.find("regeneration exhausted"), std::string::npos)
      << Sim.Error;
  runBoth(*P, CO);
}

TEST(VMEquivalence, InterpreterStateIsReusableAcrossRuns) {
  // One Interp recycled across programs and seeds (the fleet's usage
  // pattern) behaves like a fresh engine every time.
  AssayGraph G = assays::buildGlycomicsAssay();
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok());
  vm::CompileOptions CO;
  CO.Graph = &G;
  auto BC = vm::compile(*P, CO);
  ASSERT_TRUE(BC.ok());

  vm::Interp I;
  for (int Round = 0; Round < 3; ++Round) {
    for (std::uint64_t Seed : {7ULL, 0x5eedULL}) {
      RunOptions RO;
      RO.Seed = Seed;
      SimResult Sim = check::referenceSimulate(*P, CO, RO);

      I.start(*BC, RO);
      I.run();
      expectBitEqual(Sim, I.finish());
    }
  }
}
