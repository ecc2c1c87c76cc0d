//===- aqua/check/Reference.h - Reference wet-path engines -------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference implementations kept only as oracles for production engines:
///
///  * `referenceSimulate` is a tree-walking AquaCore simulator over AIS
///    with string-keyed fluid maps. `vm::run` must reproduce its SimResult
///    bit for bit (the `vm` differential oracle, VMEquivalenceTest and
///    bench_vm_fleet's engine race compare against it).
///  * `referenceExecutePartitioned` runs a Section 3.5 partition plan by
///    regenerating AIS per partition and simulating it on the reference.
///    `vm::runChip` with online re-management off must reproduce the first
///    eight fields of its ChipResult bit for bit.
///  * `referenceSolveInteger` is a plain depth-first branch-and-bound that
///    copies the Model per node and solves each relaxation cold on the
///    dense LP. The `engines` oracle requires `lp::solveInteger` to reach
///    the same verdict and optimum.
///
/// None records metrics or trace events: production records `vm.*` and
/// `lp.*`.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_CHECK_REFERENCE_H
#define AQUA_CHECK_REFERENCE_H

#include "aqua/codegen/AIS.h"
#include "aqua/core/Partition.h"
#include "aqua/lp/BranchAndBound.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/Fleet.h"
#include "aqua/vm/VM.h"

#include <map>
#include <string>

namespace aqua::check {

/// A quantity of (possibly mixed) fluid: a volume plus a composition
/// vector mapping input fluid names to their fractions.
struct Fluid {
  double VolumeNl = 0.0;
  /// Input-fluid name -> fraction of this fluid's volume; fractions sum to
  /// 1 for non-empty fluids.
  std::map<std::string, double> Composition;

  bool empty() const { return VolumeNl <= 1e-12; }

  /// Creates a pure fluid of \p Volume nl named \p Name.
  static Fluid pure(std::string Name, double VolumeNl);

  /// Merges \p Other into this fluid (volume-weighted composition).
  void add(const Fluid &Other);

  /// Splits off \p VolumeNl (clamped to the available volume) and returns
  /// it; composition is preserved on both sides.
  Fluid take(double VolumeNl);

  /// Fraction of \p Name in this fluid (0 if absent).
  double fractionOf(const std::string &Name) const;
};

/// Executes \p Program on the tree-walking reference under the same
/// options `vm::compile` + `vm::run` take (RunOptions::FleetChip is
/// ignored: the reference records no trace).
vm::SimResult referenceSimulate(const codegen::AISProgram &Program,
                                const vm::CompileOptions &CO,
                                const vm::RunOptions &RO);

/// Executes \p Plan partition by partition on \p Spec: dispensing,
/// rounding, code generation and a reference simulation per partition.
/// RO.Seed is the chip seed (yields from Seed ^ 0xa55a, partition P
/// simulated at Seed + 17 * P). Fills the first eight ChipResult fields.
/// Fails when a partition's dispensed volumes underflow the least count.
vm::ChipResult referenceExecutePartitioned(const core::PartitionPlan &Plan,
                                           const core::MachineSpec &Spec,
                                           const vm::RunOptions &RO);

/// Solves \p M with integrality on every variable whose \p IsInteger entry
/// is true (all of them when \p IsInteger is empty). Depth-first, nearer
/// child first, branching on the most fractional variable; every node
/// copies \p M, tightens the path's bounds and calls `lp::solve` with
/// `LpEngine::Dense` and the rest of Opts.LP. Honours Opts.MaxNodes and
/// Opts.TimeLimitSec (TimeLimit on expiry); ignores the search
/// accelerators (CutRounds, RestartNodes, Reliable).
lp::IntSolution referenceSolveInteger(const lp::Model &M,
                                      const std::vector<bool> &IsInteger,
                                      const lp::IntOptions &Opts);

} // namespace aqua::check

#endif // AQUA_CHECK_REFERENCE_H
