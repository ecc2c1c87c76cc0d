//===- aqua/lp/BranchAndBound.h - ILP via branch-and-bound -------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer linear programming by LP-based branch-and-bound.
///
/// The paper's IVol formulation is an ILP; the authors solved it with
/// lp_solve 5.5 and found it "ran for hours without generating a solution"
/// on the enzyme assay while plain LP finished in under a second (Section
/// 4.3). This solver reproduces that behaviour: exact on small instances,
/// budget-limited on large ones.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_LP_BRANCHANDBOUND_H
#define AQUA_LP_BRANCHANDBOUND_H

#include "aqua/lp/Solver.h"

namespace aqua::lp {

/// Options for the integer solver.
struct IntOptions {
  SolverOptions LP;
  /// Maximum branch-and-bound nodes; 0 means unlimited.
  std::int64_t MaxNodes = 0;
  /// Wall-clock budget in seconds; 0 means unlimited.
  double TimeLimitSec = 0.0;
  /// Rounds of root cutting-plane separation (GMI + Chvatal-Gomory
  /// divisor cuts) before the tree search; 0 disables cuts.
  int CutRounds = 8;
  /// Cut-and-branch restart: once the tree has an incumbent and has spent
  /// this many nodes without closing, the search restarts from a
  /// reduced-cost-tightened, freshly cut root (the incumbent and the
  /// pseudocost table carry over). 0 disables restarts.
  std::int64_t RestartNodes = 20000;
  /// Reliability threshold for pseudocost branching: a candidate whose
  /// up/down pseudocosts have fewer than this many observations gets
  /// strong-branched before the scores are trusted. 0 falls back to
  /// most-fractional branching.
  int Reliable = 4;
};

/// Result of an integer solve.
struct IntSolution {
  /// Optimal when proven; IterationLimit/TimeLimit when a budget expired
  /// and NumericFail when a node's LP failed numerically (the incumbent,
  /// if any, is still reported); Infeasible when proven.
  SolveStatus Status = SolveStatus::Infeasible;
  /// True when an integral incumbent was found (even if not proven optimal).
  bool HasIncumbent = false;
  double Objective = 0.0;
  std::vector<double> Values;
  std::int64_t Nodes = 0;
  /// Total simplex pivots across every node relaxation.
  std::int64_t LpPivots = 0;
  double Seconds = 0.0;
};

/// Solves \p M with integrality required on every variable whose entry in
/// \p IsInteger is true. \p IsInteger must have one entry per variable, or
/// be empty to require integrality on all variables. The search runs on
/// the calling thread; concurrent calls share no state beyond the global
/// metrics registry.
IntSolution solveInteger(const Model &M, const std::vector<bool> &IsInteger,
                         const IntOptions &Opts = {});

} // namespace aqua::lp

#endif // AQUA_LP_BRANCHANDBOUND_H
