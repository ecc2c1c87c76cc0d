//===- glycomics_runtime.cpp - Run-time volume assignment -----------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The glycomics assay (Figure 10) has three separations whose output
// volumes cannot be known at compile time. This example builds the
// Section 3.5 partition plan (Figure 13), then walks the partitions in
// execution order, "measuring" each separation's output with a seeded RNG
// and dispensing the next partition with the run-time scale rule.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Partition.h"
#include "aqua/lang/Lower.h"
#include "aqua/support/Random.h"
#include "aqua/vm/Fleet.h"

#include <cstdio>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

int main() {
  auto Lowered = lang::compileAssay(assays::glycomicsSource());
  if (!Lowered.ok()) {
    std::fprintf(stderr, "compile error: %s\n", Lowered.message().c_str());
    return 1;
  }

  MachineSpec Spec;
  auto Image = vm::compileFleetImage(Lowered->Graph, Spec);
  if (!Image.ok()) {
    std::fprintf(stderr, "partitioning failed: %s\n",
                 Image.message().c_str());
    return 1;
  }
  const PartitionPlan &Plan = Image->Plan;

  std::printf("=== Compile time: partition plan (Figure 13) ===\n%s\n",
              Plan.str().c_str());

  // ----- Run time: walk partitions in wave order. Every unknown-volume
  // separation's yield is "measured" here with a deterministic RNG playing
  // the role of the on-chip volume sensor [Gomez et al. 2001].
  SplitMix64 Rng(2026);
  std::vector<double> Available(Plan.Inputs.size(), -1.0);

  std::printf("=== Run time: per-partition dispensing ===\n");
  for (size_t P = 0; P < Plan.Parts.size(); ++P) {
    VolumeAssignment V = dispensePartition(Plan, static_cast<int>(P),
                                           Available, Spec);
    std::printf("partition %zu (wave %d):\n", P, Plan.Parts[P].Wave);
    for (NodeId N : Plan.Parts[P].Members)
      std::printf("  %-22s %8.3f nl\n", Plan.Graph.node(N).Name.c_str(),
                  V.NodeVolumeNl[N]);

    // "Measure" the outputs of this partition's unknown-volume leaves and
    // publish them to the consuming partitions' constrained inputs.
    for (NodeId N : Plan.Parts[P].Members) {
      const Node &Nd = Plan.Graph.node(N);
      if (!Nd.UnknownVolume)
        continue;
      double Yield = 0.2 + 0.5 * Rng.nextUnit();
      double Measured = V.NodeVolumeNl[N] * Yield;
      std::printf("  measured %s output: %.3f nl (yield %.0f%%)\n",
                  Nd.Name.c_str(), Measured, Yield * 100.0);
      for (size_t CI = 0; CI < Plan.Inputs.size(); ++CI)
        if (Plan.Inputs[CI].Source == N)
          Available[CI] = Measured * Plan.Inputs[CI].Share.toDouble();
    }
  }

  std::printf("\nIf a separation yields too little (try X2), the consuming "
              "partition scales down\nproportionally; below the least count "
              "the runtime would fall back on\nBioStream-style "
              "regeneration.\n");

  // ----- The same flow, fully automated: each partition is dispensed,
  // metered and run on the VM in wave order by one fleet chip (online
  // re-management off: a scarce measurement stops the run).
  std::printf("\n=== Automated: vm::runChip ===\n");
  vm::FleetOptions FO;
  FO.EnableOnlineRemanage = false;
  vm::ChipResult Run = vm::runChip(*Image, FO, 2026);
  if (!Run.Completed) {
    std::printf("run stopped: %s\n", Run.Error.c_str());
    return 1;
  }
  std::printf("partitions executed: %d, wet time %.0f s, regenerations %d\n",
              Run.PartitionsExecuted, Run.FluidSeconds, Run.Regenerations);
  for (const auto &[Name, Nl] : Run.MeasuredNl)
    std::printf("  measured %-12s %7.2f nl\n", Name.c_str(), Nl);
  return 0;
}
