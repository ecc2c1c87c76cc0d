//===- aqua/vm/Compiler.h - AIS to bytecode lowering -------------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a verified AIS program into `vm::Program` bytecode: operand
/// resolution to dense slots, relative-volume planning (constant folding
/// of the fill-to-capacity policy), regeneration-slice binding from the
/// assay graph, and name interning. See Bytecode.h for the contract with
/// the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_VM_COMPILER_H
#define AQUA_VM_COMPILER_H

#include "aqua/ir/AssayGraph.h"
#include "aqua/support/Error.h"
#include "aqua/vm/Bytecode.h"

namespace aqua::vm {

/// Compilation inputs beyond the AIS program itself.
struct CompileOptions {
  /// Hardware parameters folded into planned volumes and quantization.
  core::MachineSpec Spec;
  /// The assay DAG the program was generated from; enables pre-bound
  /// regeneration slices (null reproduces the reference's
  /// no-graph behavior: regeneration beyond input re-draws is impossible).
  const ir::AssayGraph *Graph = nullptr;
};

/// Compiles \p P. Fails on malformed programs (operand-space overflow,
/// more than 65534 distinct locations or input fluids).
Expected<Program> compile(const codegen::AISProgram &P,
                          const CompileOptions &Opts);

} // namespace aqua::vm

#endif // AQUA_VM_COMPILER_H
