//===- aqua/codegen/Codegen.h - Assay DAG to AIS lowering --------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Code generation from the assay DAG to AIS, covering the conventional
/// back-end duties (Section 4.1: "The usual steps of parsing, intermediate
/// representation, register allocation, and code generation are similar to
/// those of a conventional compiler"):
///
///  * reservoir allocation -- reservoirs are the register file; values with
///    multiple pending uses are spilled to a reservoir, single-use values
///    are forwarded unit-to-unit through AIS's storage-less operands;
///  * functional-unit assignment (mixers/heaters/sensors/separators);
///  * volume operands -- either the paper's relative part counts
///    (Figures 9b/10b/11b) or metered absolute volumes coming from a
///    volume-management assignment.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_CODEGEN_CODEGEN_H
#define AQUA_CODEGEN_CODEGEN_H

#include "aqua/codegen/AIS.h"
#include "aqua/core/VolumeAssignment.h"
#include "aqua/ir/AssayGraph.h"
#include "aqua/support/Error.h"

namespace aqua::codegen {

/// Physical unit counts of the target device.
struct MachineLayout {
  int Reservoirs = 32;
  int Mixers = 2;
  int Heaters = 2;
  int Sensors = 2;
  int Separators = 2;
  int InputPorts = 32;
  int OutputPorts = 2;
};

/// How move instructions carry volumes.
enum class VolumeMode {
  /// Relative part counts straight from the assay's mix ratios (the
  /// paper's compiled code); the runtime translates them to
  /// implementation-specific volumes.
  Relative,
  /// Absolute metered volumes from a volume-management assignment.
  Managed,
};

/// Code generation options.
struct CodegenOptions {
  VolumeMode Mode = VolumeMode::Relative;
  /// Required in Managed mode: per-edge volumes (nl) for the same graph.
  const core::VolumeAssignment *Volumes = nullptr;
  /// Optional AIS introspection: when non-null, filled with one entry per
  /// emitted instruction holding the edge whose metered volume the
  /// instruction carries (managed move-abs), or -1 for every other
  /// instruction. Lets callers re-meter a generated program for a new
  /// volume assignment of the same graph without regenerating it (the
  /// bytecode VM's fleet driver patches volume tables this way).
  std::vector<ir::EdgeId> *EdgeOfInstr = nullptr;
};

/// Generates AIS for \p G. Fails when the graph exceeds the machine's
/// reservoirs/ports, or when Managed mode lacks a volume assignment.
Expected<AISProgram> generateAIS(const ir::AssayGraph &G,
                                 const MachineLayout &Layout = {},
                                 const CodegenOptions &Opts = {});

/// The decisions managed code generation makes from \p V: for every mix
/// and incubate node without an excess edge, whether its location keeps
/// residue to clear once its last use is consumed (0 for every other node
/// slot). Inputs and separations are always cleared, and no other kind has
/// consumers in the graphs the front end and the manager build, so two
/// assignments with equal shapes generate the same instruction stream up
/// to move-abs volumes.
std::vector<char> residueShape(const ir::AssayGraph &G,
                               const core::VolumeAssignment &V);

} // namespace aqua::codegen

#endif // AQUA_CODEGEN_CODEGEN_H
