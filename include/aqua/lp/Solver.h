//===- aqua/lp/Solver.h - Presolve-enabled LP entry point --------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing LP entry point: presolve, simplex, postsolve.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_LP_SOLVER_H
#define AQUA_LP_SOLVER_H

#include "aqua/lp/Presolve.h"
#include "aqua/lp/Simplex.h"

#include <cstdint>
#include <memory>

namespace aqua::lp {

struct Basis; // RevisedSimplex.h

/// Which simplex implementation carries the solve.
enum class LpEngine {
  /// Two-phase dense tableau (Simplex.h). A reference only: it runs when a
  /// caller selects it by name (the aqua/check oracles and reference ILP,
  /// perfbench's reference objective), never as a fallback.
  Dense,
  /// Bounded-variable revised simplex (RevisedSimplex.h); the production
  /// engine. A numeric failure is returned as SolveStatus::NumericFail.
  Revised,
};

/// Options for the full solve pipeline.
struct SolverOptions {
  SolveOptions Simplex;
  /// Run equality-substitution presolve before the simplex.
  bool Presolve = true;
  /// Simplex implementation. The two engines are cross-checked against
  /// each other on every generated model by the aqua/check "engines"
  /// oracle. Not part of request fingerprints (RequestKey.cpp).
  LpEngine Engine = LpEngine::Revised;
  /// Optimal basis captured from a structurally identical earlier solve
  /// (SolveInfo::OptBasis). Used only by the Revised engine, and only when
  /// WarmShapeHash matches the shape hash of the model the simplex
  /// actually sees: the basis is then repaired with the dual simplex
  /// instead of solving cold. A warm start can change pivot counts but
  /// never the optimum, so none of these three fields participate in
  /// request fingerprints (RequestKey.cpp).
  std::shared_ptr<const Basis> WarmStart;
  /// Shape hash WarmStart was captured under; see modelShapeHash().
  std::uint64_t WarmShapeHash = 0;
  /// Capture the optimal basis and shape hash into SolveInfo so a later
  /// same-shape solve can warm start from them.
  bool CaptureBasis = false;
};

/// Extra information about a solve beyond the Solution itself.
struct SolveInfo {
  PresolveStats Presolve;
  int ReducedRows = 0;
  int ReducedVars = 0;
  /// Shape hash of the model handed to the simplex (the presolve-reduced
  /// model when presolve ran). Set when CaptureBasis or WarmStart was
  /// given; 0 otherwise.
  std::uint64_t ShapeHash = 0;
  /// The optimal basis, captured when CaptureBasis was set, the Revised
  /// engine finished Optimal, and presolve did not prove the model
  /// infeasible outright. Null otherwise.
  std::shared_ptr<const Basis> OptBasis;
  /// True when the solve reused WarmStart (shape hashes matched and the
  /// Revised engine ran a dual repair instead of a cold solve).
  bool WarmStarted = false;
};

/// Structure-only hash of \p M: optimization direction, variable count,
/// objective coefficients, and every row's kind and ordered terms -- but
/// NOT right-hand sides or variable bounds. Two instances of the same
/// formulation that differ only in input volumes / capacities (which enter
/// the LP as rhs values and bounds) therefore share a hash, which is
/// exactly the precondition for reusing an optimal basis via dual repair:
/// the basis matrix stays nonsingular and the reduced costs stay
/// dual-feasible under any rhs/bound change.
std::uint64_t modelShapeHash(const Model &M);

/// Solves \p M (presolve + simplex + postsolve); the only LP entry point.
/// Values in the returned Solution are indexed by the original model's
/// variables, and the objective is evaluated on the original model. \p
/// Info, when non-null, receives presolve statistics.
Solution solve(const Model &M, const SolverOptions &Opts = {},
               SolveInfo *Info = nullptr);

} // namespace aqua::lp

#endif // AQUA_LP_SOLVER_H
