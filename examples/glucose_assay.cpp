//===- glucose_assay.cpp - Compile and run the glucose assay --------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The full pipeline on the paper's glucose assay (Figure 9): parse the
// assay source, lower to the DAG, run the volume-management hierarchy,
// generate AIS with metered volumes, and execute it on the AquaCore
// simulator (the bytecode VM) -- then do the same without volume
// management to watch regeneration kick in.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/PaperAssays.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/lang/Lower.h"
#include "aqua/service/Pipeline.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/VM.h"

#include <cstdio>

using namespace aqua;

int main() {
  // ----- Compile the assay language source.
  std::printf("=== Assay source (Figure 9a) ===\n%s\n",
              assays::glucoseSource());
  auto Lowered = lang::compileAssay(assays::glucoseSource());
  if (!Lowered.ok()) {
    std::fprintf(stderr, "compile error: %s\n", Lowered.message().c_str());
    return 1;
  }

  // ----- Volume management (Figure 6 hierarchy) and metered AIS.
  service::CompileArtifact A =
      service::compileGraph(Lowered->Graph, {}, {}, {});
  const core::ManagerResult &VM = A.VM;
  std::printf("=== Volume management ===\n%s", VM.Log.c_str());
  if (!A.Ok) {
    std::fprintf(stderr, "%s\n", A.Error.c_str());
    return 1;
  }
  std::printf("method: %s, min dispense %.2f nl, rounding error %.2f%%\n\n",
              VM.Method == core::SolveMethod::DagSolve ? "DAGSolve" : "LP",
              VM.MinDispenseNl, VM.Rounded.MeanRatioErrorPct);
  std::printf("=== Managed AIS ===\n%s\n", A.Program.str().c_str());

  vm::CompileOptions CO;
  CO.Graph = &VM.Graph;
  auto ManagedBC = vm::compile(A.Program, CO);
  if (!ManagedBC.ok()) {
    std::fprintf(stderr, "%s\n", ManagedBC.message().c_str());
    return 1;
  }
  vm::RunOptions RO;
  RO.EnableRegeneration = false; // Managed runs don't need the backstop.
  vm::SimResult ManagedRun = vm::run(*ManagedBC, RO);
  std::printf("=== Managed execution ===\n");
  std::printf("completed: %s, regenerations: %d, wet time: %.0f s\n",
              ManagedRun.Completed ? "yes" : "no", ManagedRun.Regenerations,
              ManagedRun.FluidSeconds);
  for (const vm::SenseReading &R : ManagedRun.Senses) {
    double Glucose = 0.0;
    auto It = R.Composition.find("Glucose");
    if (It != R.Composition.end())
      Glucose = It->second;
    std::printf("  %-9s volume %5.2f nl, glucose fraction %.4f\n",
                R.Name.c_str(), R.VolumeNl, Glucose);
  }

  // ----- Baseline: relative volumes, no management, regeneration on.
  auto Naive = codegen::generateAIS(Lowered->Graph);
  CO.Graph = &Lowered->Graph;
  auto NaiveBC = vm::compile(*Naive, CO);
  if (!NaiveBC.ok()) {
    std::fprintf(stderr, "%s\n", NaiveBC.message().c_str());
    return 1;
  }
  vm::SimResult NaiveRun = vm::run(*NaiveBC);
  std::printf("\n=== Without volume management (regeneration baseline) ===\n");
  std::printf("completed: %s, regenerations: %d, wet time: %.0f s "
              "(%.1fx the managed run)\n",
              NaiveRun.Completed ? "yes" : "no", NaiveRun.Regenerations,
              NaiveRun.FluidSeconds,
              NaiveRun.FluidSeconds / ManagedRun.FluidSeconds);
  return 0;
}
