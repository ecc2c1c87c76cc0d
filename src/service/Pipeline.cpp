//===- Pipeline.cpp - The one compile pipeline ----------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/Pipeline.h"

#include "aqua/core/Rounding.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <utility>

using namespace aqua;

service::CompileArtifact
aqua::service::compileGraph(const ir::AssayGraph &G,
                            const core::MachineSpec &Spec,
                            const core::ManagerOptions &Manage,
                            const codegen::MachineLayout &Layout) {
  CompileArtifact A;
  // Anything else would reach MachineSpec::capacityUnits()'s integer cast
  // (undefined for NaN and infinity) or divide by a zero least count.
  for (auto [Field, Nl] : {std::pair{"MaxCapacityNl", Spec.MaxCapacityNl},
                           std::pair{"LeastCountNl", Spec.LeastCountNl}}) {
    if (!(std::isfinite(Nl) && Nl > 0)) {
      A.Error = format("invalid machine spec: %s must be a finite positive "
                       "volume in nl, got %g",
                       Field, Nl);
      return A;
    }
  }
  A.Managed = std::ranges::none_of(G.liveNodes(), [&](ir::NodeId N) {
    return G.node(N).UnknownVolume;
  });
  codegen::CodegenOptions CG;
  if (A.Managed) {
    A.VM = core::manageVolumes(G, Spec, Manage);
    if (!A.VM.Feasible) {
      A.Error = "no feasible volume assignment; decision log:\n" + A.VM.Log;
      return A;
    }
    A.Metered = core::integerToNl(A.VM.Graph, A.VM.Rounded, Spec);
    CG.Mode = codegen::VolumeMode::Managed;
    CG.Volumes = &A.Metered;
  }
  auto Prog = codegen::generateAIS(A.Managed ? A.VM.Graph : G, Layout, CG);
  if (!Prog.ok()) {
    A.Error = Prog.message();
    return A;
  }
  A.Ok = true;
  A.Program = std::move(*Prog);
  return A;
}
