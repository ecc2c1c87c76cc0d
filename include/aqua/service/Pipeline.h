//===- aqua/service/Pipeline.h - The one compile pipeline --------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assay DAG -> Figure 6 hierarchy -> metering -> AIS (paper §3.3-3.5, §4)
/// in one call, run by aquac, the service, the oracles, examples and benches.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_SERVICE_PIPELINE_H
#define AQUA_SERVICE_PIPELINE_H

#include "aqua/codegen/Codegen.h"
#include "aqua/core/Manager.h"

#include <string>

namespace aqua::service {

/// The product of one compile; the service caches it (immutable once
/// published) under the canonical request key.
struct CompileArtifact {
  /// False when the pipeline failed deterministically (invalid machine
  /// spec, infeasible volume assignment, codegen resource exhaustion).
  /// The service caches such failures too.
  bool Ok = false;
  /// Diagnostic when !Ok (the manager's decision log or codegen error).
  std::string Error;
  /// True when the assay went through volume management (no statically
  /// unknown volumes); false for relative-mode compiles.
  bool Managed = false;
  /// Hierarchy result; meaningful when Managed.
  core::ManagerResult VM;
  /// Metered per-edge volumes (nl) for VM.Graph; meaningful when Managed.
  core::VolumeAssignment Metered;
  /// The generated AIS program; meaningful when Ok.
  codegen::AISProgram Program;

  /// Rough heap footprint for the cache's byte budget (strings + vectors;
  /// not exact, but monotone in the real cost).
  std::size_t approxBytes() const;
};

/// Compiles \p G for \p Spec and \p Layout, rejecting a capacity or least
/// count that is not a finite positive volume. Run-time-unknown volumes
/// get relative AIS (the partition API dispenses them); otherwise the
/// hierarchy runs under \p Manage, and infeasibility is an error.
CompileArtifact compileGraph(const ir::AssayGraph &G,
                             const core::MachineSpec &Spec,
                             const core::ManagerOptions &Manage,
                             const codegen::MachineLayout &Layout);

} // namespace aqua::service

#endif // AQUA_SERVICE_PIPELINE_H
