//===- bench_table2_regeneration.cpp - Table 2 reproduction (regen counts) -------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 2's "Regen. count" column: the number of BioStream-
// style regenerations triggered when the assays run WITHOUT volume
// management (relative-volume AIS, operations filling their functional
// unit to capacity), versus zero regenerations with DAGSolve's managed
// volumes.
//
// The paper never specifies its naive execution policy, so absolute counts
// are policy-dependent; the reproduced shape is the ordering and the
// magnitude gap: Glucose needs a handful, Enzyme tens, Enzyme10 thousands,
// and managed runs none.
//
// --engine=vm|interp|both selects the execution engine: the tree-walking
// runtime::Simulator ("interp") or the aqua/vm bytecode interpreter
// ("vm"). Both produce bit-for-bit identical SimResults (the `vm`
// differential oracle enforces this), so the regen counts never differ;
// what differs is wall time, and BENCH_table2_regeneration.json records
// both engines so the speedup is visible in committed BENCH files.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/runtime/Simulator.h"
#include "aqua/service/Pipeline.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/VM.h"

#include <cstring>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace benchutil;

namespace {

enum class Engine { Interp, Vm };

const char *engineName(Engine E) {
  return E == Engine::Interp ? "interp" : "vm";
}

struct Outcome {
  int Regens = 0;
  double WetSeconds = 0.0;
  std::uint64_t Instructions = 0;
  double WallSec = 0.0;
  bool Completed = false;
};

/// Times \p P on the selected engine. The vm path compiles once and binds
/// one interpreter outside the timed region, so the wall column measures
/// the dispatch loop (the steady-state cost a fleet pays), not
/// compilation.
Outcome timeProgram(Engine E, const codegen::AISProgram &P,
                    const runtime::SimOptions &SO) {
  runtime::SimResult S;
  Outcome O;
  if (E == Engine::Interp) {
    O.WallSec = medianSeconds([&] { S = runtime::simulate(P, SO); }, 5);
  } else {
    vm::CompileOptions CO;
    CO.Spec = SO.Spec;
    CO.Graph = SO.Graph;
    auto Prog = vm::compile(P, CO);
    if (!Prog.ok()) {
      std::fprintf(stderr, "vm compile failed: %s\n",
                   Prog.message().c_str());
      return O;
    }
    vm::RunOptions RO;
    RO.EnableRegeneration = SO.EnableRegeneration;
    RO.Seed = SO.Seed;
    RO.MinSeparationYield = SO.MinSeparationYield;
    RO.MaxSeparationYield = SO.MaxSeparationYield;
    RO.FixedSeparationYield = SO.FixedSeparationYield;
    RO.MoveSeconds = SO.MoveSeconds;
    RO.MaxRegenRetries = SO.MaxRegenRetries;
    vm::Interp I;
    I.bind(*Prog);
    O.WallSec = medianSeconds(
        [&] {
          I.reset(RO);
          I.run();
          S = I.finish();
        },
        5);
  }
  O.Regens = S.Regenerations;
  O.WetSeconds = S.FluidSeconds;
  O.Instructions = static_cast<std::uint64_t>(S.InstructionsExecuted);
  O.Completed = S.Completed;
  return O;
}

Outcome runNaive(Engine E, const AssayGraph &G) {
  auto P = codegen::generateAIS(G);
  runtime::SimOptions SO;
  SO.Graph = &G;
  return timeProgram(E, *P, SO);
}

Outcome runManaged(Engine E, const AssayGraph &Raw) {
  service::CompileArtifact A = service::compileGraph(Raw, {}, {}, {});
  if (!A.Ok)
    return {};
  runtime::SimOptions SO;
  SO.Graph = &A.VM.Graph;
  return timeProgram(E, A.Program, SO);
}

} // namespace

int main(int argc, char **argv) {
  bool RunInterp = true, RunVm = true;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--engine=interp"))
      RunVm = false;
    else if (!std::strcmp(argv[I], "--engine=vm"))
      RunInterp = false;
    else if (std::strcmp(argv[I], "--engine=both")) {
      std::fprintf(stderr, "usage: %s [--engine=vm|interp|both]\n", argv[0]);
      return 2;
    }
  }

  JsonReporter Json("table2_regeneration");

  std::printf("Table 2 ('Regen. count'): executions without volume "
              "management\n");
  std::printf("  %-10s %-7s %12s %14s %14s %12s   | paper\n", "assay",
              "engine", "naive regens", "naive wet time", "naive wall",
              "managed");

  struct Case {
    const char *Name;
    int Dilutions; // 0 = glucose.
    const char *Paper;
  };
  Case Cases[] = {{"Glucose", 0, "2"},
                  {"Enzyme", 4, "85"},
                  {"Enzyme10", 10, "1313"}};
  for (const Case &C : Cases) {
    AssayGraph G = C.Dilutions == 0 ? assays::buildGlucoseAssay()
                                    : assays::buildEnzymeAssay(C.Dilutions);
    for (Engine E : {Engine::Interp, Engine::Vm}) {
      if ((E == Engine::Interp && !RunInterp) ||
          (E == Engine::Vm && !RunVm))
        continue;
      Outcome Naive = runNaive(E, G);
      std::string ManagedStr = "-";
      BenchRecord &Rec = Json.add(std::string(C.Name) + "/naive");
      Rec.param("assay", C.Name)
          .param("engine", engineName(E))
          .metric("regenerations", Naive.Regens)
          .metric("wet_seconds", Naive.WetSeconds)
          .metric("instructions", static_cast<double>(Naive.Instructions))
          .metric("median_sec", Naive.WallSec)
          .metric("instr_per_sec",
                  Naive.WallSec > 0.0
                      ? static_cast<double>(Naive.Instructions) / Naive.WallSec
                      : 0.0);
      if (C.Dilutions != 10 || fullRun()) {
        // Managed Enzyme10 means a full Figure 6 driver run with LP
        // fallbacks on a ~17k-constraint model; skipped unless
        // AQUAVOL_BENCH_FULL=1.
        Outcome Managed = runManaged(E, G);
        ManagedStr = std::to_string(Managed.Regens);
        Json.add(std::string(C.Name) + "/managed")
            .param("assay", C.Name)
            .param("engine", engineName(E))
            .metric("regenerations", Managed.Regens)
            .metric("wet_seconds", Managed.WetSeconds)
            .metric("median_sec", Managed.WallSec);
      }
      std::printf("  %-10s %-7s %10d %s %14s %14s %12s   | %s\n", C.Name,
                  engineName(E), Naive.Regens, Naive.Completed ? "" : "(!)",
                  fmtSeconds(Naive.WetSeconds).c_str(),
                  fmtSeconds(Naive.WallSec).c_str(), ManagedStr.c_str(),
                  C.Paper);
    }
  }
  std::printf("  %-10s %14s %14s %16s   | --\n", "Glycomics",
              "(run-time", "dependent)", "see fig13 bench");

  std::printf("\nWith DAGSolve-managed volumes there are no regenerations "
              "(paper: \"With DAGSolve,\nthere are no regenerations\"); "
              "the naive counts grow from a handful (Glucose)\nthrough tens "
              "(Enzyme) to thousands (Enzyme10), matching the paper's "
              "ordering.\nBoth engines report identical regeneration counts "
              "(the vm oracle guarantees\nbit-for-bit equality); the wall "
              "column is where the bytecode VM pulls ahead.\n");
  return 0;
}
