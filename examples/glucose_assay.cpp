//===- glucose_assay.cpp - Compile and run the glucose assay --------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The full pipeline on the paper's glucose assay (Figure 9): parse the
// assay source, lower to the DAG, run the volume-management hierarchy,
// generate AIS with metered volumes, and execute it on the AquaCore
// simulator -- then do the same without volume management to watch
// regeneration kick in.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/PaperAssays.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/lang/Lower.h"
#include "aqua/runtime/Simulator.h"
#include "aqua/service/Pipeline.h"

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

  runtime::SimOptions SO;
  SO.Graph = &VM.Graph;
  SO.EnableRegeneration = false; // Managed runs don't need the backstop.
  runtime::SimResult ManagedRun = runtime::simulate(A.Program, SO);
  std::printf("=== Managed execution ===\n");
  std::printf("completed: %s, regenerations: %d, wet time: %.0f s\n",
              ManagedRun.Completed ? "yes" : "no", ManagedRun.Regenerations,
              ManagedRun.FluidSeconds);
  for (const runtime::SenseReading &R : ManagedRun.Senses) {
    double Glucose = 0.0;
    auto It = R.Composition.find("Glucose");
    if (It != R.Composition.end())
      Glucose = It->second;
    std::printf("  %-9s volume %5.2f nl, glucose fraction %.4f\n",
                R.Name.c_str(), R.VolumeNl, Glucose);
  }

  // ----- Baseline: relative volumes, no management, regeneration on.
  auto Naive = codegen::generateAIS(Lowered->Graph);
  runtime::SimOptions NaiveSO;
  NaiveSO.Graph = &Lowered->Graph;
  runtime::SimResult NaiveRun = runtime::simulate(*Naive, NaiveSO);
  std::printf("\n=== Without volume management (regeneration baseline) ===\n");
  std::printf("completed: %s, regenerations: %d, wet time: %.0f s "
              "(%.1fx the managed run)\n",
              NaiveRun.Completed ? "yes" : "no", NaiveRun.Regenerations,
              NaiveRun.FluidSeconds,
              NaiveRun.FluidSeconds / ManagedRun.FluidSeconds);
  return 0;
}
