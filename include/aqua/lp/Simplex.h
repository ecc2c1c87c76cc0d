//===- aqua/lp/Simplex.h - Two-phase primal simplex --------------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense two-phase primal simplex solver.
///
/// The paper solved its RVol formulation with MATLAB's `linprog` (LIPSOL, an
/// interior-point code). AquaVol ships its own solver so the reproduction is
/// self-contained; a simplex method finds the same optima, and the Table 2
/// result -- DAGSolve is orders of magnitude faster than a general LP solver
/// and scales better with assay size -- is independent of the LP algorithm.
///
/// Implementation notes:
///  * Variables are shifted by their lower bounds; finite upper bounds
///    become explicit rows; free variables are split into differences of
///    nonnegatives.
///  * Phase 1 minimizes the sum of artificial variables; phase 2 optimizes
///    the user objective with artificial columns barred from re-entering.
///  * Pivoting uses Dantzig's rule and permanently switches to Bland's rule
///    (which guarantees termination) after a long degenerate stall.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_LP_SIMPLEX_H
#define AQUA_LP_SIMPLEX_H

#include "aqua/lp/Model.h"

#include <cstdint>
#include <vector>

namespace aqua::lp {

/// Outcome of an LP or ILP solve.
enum class SolveStatus {
  Optimal,        ///< Optimal solution found.
  Infeasible,     ///< No feasible point exists.
  Unbounded,      ///< Objective unbounded over the feasible region.
  IterationLimit, ///< Stopped at the iteration budget.
  TimeLimit,      ///< Stopped at the wall-clock budget.
  TooLarge,       ///< Tableau would exceed the memory budget.
  NumericFail,    ///< The revised engine stalled past its watchdog or lost
                  ///< its factorization; nothing is proven.
};

/// Returns a short human-readable name for \p S.
const char *solveStatusName(SolveStatus S);

/// Entering-variable pricing rule for the revised simplex engine. The
/// dense tableau ignores it (its Dantzig-with-Bland-fallback rule is the
/// differential baseline).
enum class LpPricing {
  /// Maintained reduced costs scored by devex reference weights; the
  /// production default.
  Devex,
  /// Lowest-index eligible column from the first pivot on. Guarantees
  /// termination on cycling-prone instances; slow. The engine falls back
  /// to this rule automatically after a degenerate stall regardless of
  /// the configured rule.
  Bland,
};

/// Returns a short human-readable name for \p P.
const char *lpPricingName(LpPricing P);

/// Knobs for both simplex engines.
struct SolveOptions {
  /// Wall-clock budget in seconds; 0 means unlimited.
  double TimeLimitSec = 0.0;
  /// Pivot budget; 0 means unlimited.
  std::int64_t MaxIterations = 0;
  /// Memory budget for the dense tableau, in bytes. The revised engine
  /// works in O(nnz) memory and ignores it.
  std::size_t MaxTableauBytes = std::size_t(2) << 30;
  /// Number of non-improving pivots tolerated before switching to Bland's
  /// rule. The revised engine reports NumericFail after four times as
  /// many (scaled by the basis dimension above 256 rows).
  int StallThreshold = 512;
  /// Entering-variable rule for the revised engine.
  LpPricing Pricing = LpPricing::Devex;
};

/// Result of an LP solve.
struct Solution {
  SolveStatus Status = SolveStatus::Infeasible;
  /// Objective value in the model's direction; valid when Status==Optimal.
  double Objective = 0.0;
  /// One value per model variable; valid when Status==Optimal.
  std::vector<double> Values;
  /// Simplex pivots performed.
  std::int64_t Iterations = 0;
  /// Wall-clock seconds spent in the solver.
  double Seconds = 0.0;
};

/// Solves \p M with the two-phase primal simplex method. Does not presolve;
/// see Solver.h for the presolve-enabled entry point.
Solution solveSimplex(const Model &M, const SolveOptions &Opts = {});

} // namespace aqua::lp

#endif // AQUA_LP_SIMPLEX_H
