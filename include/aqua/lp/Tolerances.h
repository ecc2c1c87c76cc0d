//===- aqua/lp/Tolerances.h - Shared numeric tolerances ----------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LP/ILP layer's numeric tolerances, consolidated in one place so the
/// dense simplex, the revised simplex, presolve, and branch-and-bound all
/// agree on what "zero", "feasible", and "integral" mean. Each constant
/// documents the decision it guards; solvers must not introduce private
/// epsilon literals for these roles.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_LP_TOLERANCES_H
#define AQUA_LP_TOLERANCES_H

namespace aqua::lp::tol {

/// Reduced-cost optimality tolerance: a nonbasic column only enters the
/// basis when its reduced cost improves the objective by more than this.
inline constexpr double Cost = 1e-9;

/// Minimum acceptable pivot magnitude; smaller pivots are numerically
/// unreliable and are skipped in ratio tests and artificial expulsion.
inline constexpr double Pivot = 1e-8;

/// Snap-to-zero threshold applied after elimination steps to stop float
/// dust from accumulating into phantom coefficients.
inline constexpr double Zero = 1e-11;

/// Primal feasibility tolerance: a basic value within this of its bound
/// counts as on the bound (dual simplex leaving test, basis validation).
inline constexpr double Feas = 1e-7;

/// Phase-1 residual threshold: a remaining artificial/infeasibility sum
/// above this proves the LP infeasible.
inline constexpr double Phase1 = 1e-7;

/// Bound-consistency slack used by presolve when folding eliminated
/// variables' bounds: a crossing within this is float noise, beyond it is
/// infeasibility.
inline constexpr double BoundCross = 1e-9;

/// Wider presolve bound-crossing snap: crossings within this are snapped
/// to a fixed value instead of being declared infeasible.
inline constexpr double BoundSnap = 1e-7;

/// Integrality tolerance: a relaxation value within this of an integer is
/// considered integral by branch-and-bound.
inline constexpr double Integrality = 1e-6;

/// Branch-and-bound pruning slack: a node whose LP bound does not beat the
/// incumbent by more than this is fathomed.
inline constexpr double Prune = 1e-9;

} // namespace aqua::lp::tol

#endif // AQUA_LP_TOLERANCES_H
