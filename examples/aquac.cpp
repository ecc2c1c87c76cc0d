//===- aquac.cpp - The AquaVol assay compiler driver -----------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// aquac: compile an assay source file to AIS with automatic volume
// management.
//
//   aquac FILE.assay [--emit-dag] [--emit-dot] [--emit-ais] [--relative]
//                    [--simulate] [--capacity NL] [--least-count NL]
//                    [--trace-out FILE] [--metrics-out FILE]
//
// With no --emit flag, prints managed AIS. `--relative` skips volume
// management and emits the paper-style relative-volume code; `--simulate`
// also executes the program on the AquaCore simulator. `--trace-out`
// enables span tracing and writes a Chrome trace-event JSON;
// `--metrics-out` dumps the metrics registry.
//
//===----------------------------------------------------------------------===//

#include "aqua/codegen/AISParser.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/codegen/Schedule.h"
#include "aqua/core/Report.h"
#include "aqua/lang/Lower.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"
#include "aqua/runtime/Simulator.h"
#include "aqua/service/Pipeline.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace aqua;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s FILE.assay [--emit-dag] [--emit-dot] [--emit-ais]\n"
               "          [--relative] [--simulate] [--report] [--schedule]"
               " [--capacity NL] [--least-count NL]\n"
               "          [--trace-out FILE] [--metrics-out FILE]\n"
               "       %s --run-ais FILE.ais   (execute textual AIS)\n",
               Argv0, Argv0);
  return 2;
}

/// Matches `--flag VALUE` and `--flag=VALUE`; returns the value or null.
const char *flagValue(const char *Flag, int &I, int Argc, char **Argv) {
  std::size_t N = std::strlen(Flag);
  if (std::strncmp(Argv[I], Flag, N))
    return nullptr;
  if (Argv[I][N] == '=')
    return Argv[I] + N + 1;
  if (Argv[I][N] == '\0' && I + 1 < Argc)
    return Argv[++I];
  return nullptr;
}

/// Flushes --trace-out / --metrics-out on every exit path (the exporters
/// warn on I/O failure themselves).
struct ObsExports {
  std::string TraceOut, MetricsOut;

  ~ObsExports() {
    if (!TraceOut.empty())
      obs::Tracer::global().writeChromeTrace(TraceOut);
    if (!MetricsOut.empty())
      obs::metrics().writeJsonFile(MetricsOut);
  }
};

} // namespace

int main(int argc, char **argv) {
  const char *Path = nullptr;
  bool EmitDag = false, EmitDot = false, Relative = false, Simulate = false;
  bool RunAIS = false;
  bool Report = false;
  bool PrintSchedule = false;
  core::MachineSpec Spec;
  ObsExports Obs;

  for (int I = 1; I < argc; ++I) {
    const char *V;
    if (!std::strcmp(argv[I], "--run-ais"))
      RunAIS = true;
    else if (!std::strcmp(argv[I], "--emit-dag"))
      EmitDag = true;
    else if (!std::strcmp(argv[I], "--emit-dot"))
      EmitDot = true;
    else if (!std::strcmp(argv[I], "--emit-ais"))
      ; // Default output.
    else if (!std::strcmp(argv[I], "--report"))
      Report = true;
    else if (!std::strcmp(argv[I], "--schedule"))
      PrintSchedule = true;
    else if (!std::strcmp(argv[I], "--relative"))
      Relative = true;
    else if (!std::strcmp(argv[I], "--simulate"))
      Simulate = true;
    else if (!std::strcmp(argv[I], "--capacity") && I + 1 < argc)
      Spec.MaxCapacityNl = std::atof(argv[++I]);
    else if (!std::strcmp(argv[I], "--least-count") && I + 1 < argc)
      Spec.LeastCountNl = std::atof(argv[++I]);
    else if ((V = flagValue("--trace-out", I, argc, argv)))
      Obs.TraceOut = V;
    else if ((V = flagValue("--metrics-out", I, argc, argv)))
      Obs.MetricsOut = V;
    else if (argv[I][0] == '-')
      return usage(argv[0]);
    else
      Path = argv[I];
  }
  if (!Path)
    return usage(argv[0]);

  if (!Obs.TraceOut.empty())
    obs::Tracer::setEnabled(true);
  if (!Obs.MetricsOut.empty())
    obs::preregisterPipelineMetrics();

  std::ifstream File(Path);
  if (!File) {
    std::fprintf(stderr, "aquac: cannot open '%s'\n", Path);
    return 1;
  }
  std::stringstream Buffer;
  Buffer << File.rdbuf();

  if (RunAIS) {
    auto Prog = codegen::parseAIS(Buffer.str());
    if (!Prog.ok()) {
      std::fprintf(stderr, "%s:%s\n", Path, Prog.message().c_str());
      return 1;
    }
    runtime::SimOptions SO;
    SO.Spec = Spec;
    SO.EnableRegeneration = false; // Parsed AIS has no DAG provenance.
    runtime::SimResult S = runtime::simulate(*Prog, SO);
    std::printf("simulation: %s, %d instructions, %.0f s wet time\n",
                S.Completed ? "completed" : S.Error.c_str(),
                S.InstructionsExecuted, S.FluidSeconds);
    for (const runtime::SenseReading &R : S.Senses)
      std::printf("sense %s: %.2f nl\n", R.Name.c_str(), R.VolumeNl);
    return S.Completed ? 0 : 1;
  }

  auto Lowered = lang::compileAssay(Buffer.str());
  if (!Lowered.ok()) {
    std::fprintf(stderr, "%s:%s\n", Path, Lowered.message().c_str());
    return 1;
  }

  if (EmitDag) {
    std::printf("%s", Lowered->Graph.str().c_str());
    return 0;
  }
  if (EmitDot) {
    std::printf("%s", Lowered->Graph.dot().c_str());
    return 0;
  }

  service::CompileArtifact Artifact;
  if (!Relative) {
    Artifact = service::compileGraph(Lowered->Graph, Spec, {}, {});
  } else if (auto Prog = codegen::generateAIS(Lowered->Graph); Prog.ok()) {
    Artifact.Ok = true;
    Artifact.Program = std::move(*Prog);
  } else {
    Artifact.Error = Prog.message();
  }
  if (!Artifact.Ok) {
    std::fprintf(stderr, "aquac: %s\n", Artifact.Error.c_str());
    return 1;
  }
  if (!Relative && !Artifact.Managed)
    std::fprintf(stderr, "aquac: note: assay has run-time-unknown volumes; "
                         "emitting relative AIS (use the partition API for "
                         "deferred dispensing)\n");
  const ir::AssayGraph *Graph =
      Artifact.Managed ? &Artifact.VM.Graph : &Lowered->Graph;

  if (PrintSchedule) {
    auto Sched = codegen::scheduleAssay(*Graph);
    if (!Sched.ok()) {
      std::fprintf(stderr, "aquac: %s\n", Sched.message().c_str());
      return 1;
    }
    std::printf("%s", Sched->str(*Graph).c_str());
    return 0;
  }

  if (Report) {
    if (!Artifact.Managed) {
      std::fprintf(stderr, "aquac: --report needs managed volumes\n");
      return 1;
    }
    core::VolumeReport Rep =
        core::buildVolumeReport(Artifact.VM.Graph, Artifact.VM.Volumes);
    std::printf("%s", Rep.str().c_str());
    return 0;
  }

  std::printf("%s", Artifact.Program.str().c_str());

  if (Simulate) {
    runtime::SimOptions SO;
    SO.Spec = Spec;
    SO.Graph = Graph;
    runtime::SimResult S = runtime::simulate(Artifact.Program, SO);
    std::printf("\n; simulation: %s, %d instructions, %d regenerations, "
                "%.0f s wet time\n",
                S.Completed ? "completed" : S.Error.c_str(),
                S.InstructionsExecuted, S.Regenerations, S.FluidSeconds);
    for (const runtime::SenseReading &R : S.Senses)
      std::printf("; sense %s: %.2f nl\n", R.Name.c_str(), R.VolumeNl);
  }
  return 0;
}
