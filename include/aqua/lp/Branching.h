//===- aqua/lp/Branching.h - Branch-and-bound branching layer ----*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure-logic pieces of branch-and-bound, split out so they are unit
/// testable without running a solver: branch-candidate selection, the
/// pseudocost statistics of reliability branching, and the compact
/// bound-delta record nodes carry instead of a Model copy.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_LP_BRANCHING_H
#define AQUA_LP_BRANCHING_H

#include "aqua/lp/Model.h"

#include <vector>

namespace aqua::lp {

/// One fractional integer-constrained variable in an LP solution.
struct BranchCandidate {
  int Var;
  /// Fractional part of the LP value, in (Tol, 1 - Tol).
  double Frac;
};

/// All fractional integer-constrained variables of \p Values, most
/// fractional first (distance to the nearer integer, ties toward the
/// lowest index). Empty when the point is integral within \p Tol.
std::vector<BranchCandidate>
fractionalCandidates(const std::vector<double> &Values,
                     const std::vector<bool> &IsInteger, double Tol);

/// Pseudocost statistics: for every integer variable and branching
/// direction, the running mean LP-bound degradation per unit of fractional
/// distance, observed from strong-branch probes and from actual child-node
/// solves.
class PseudocostTable {
public:
  explicit PseudocostTable(int NumVars = 0) : Tab(NumVars) {}

  /// Records one observed per-unit degradation for branching \p Var in
  /// the given direction. Returns true when this is the direction's first
  /// observation (a pseudocost initialization).
  bool record(int Var, bool Up, double PerUnit);

  /// Mean per-unit degradation for the direction; the global mean over
  /// all variables when this one has no history yet; 0 with no data at
  /// all.
  double estimate(int Var, bool Up) const;

  /// min(up count, down count) -- the reliability of the variable's
  /// pseudocosts in the sense of reliability branching.
  int reliability(int Var) const;

private:
  struct Dir {
    double Sum = 0.0;
    int Cnt = 0;
  };
  struct Entry {
    Dir UpD, DownD;
  };
  std::vector<Entry> Tab;
  Dir GlobalUp, GlobalDown;
};

/// The product rule of reliability branching: the score of branching on a
/// candidate with fractional part \p Frac given the two per-unit
/// degradation estimates. Both factors are floored at a small epsilon so
/// a zero-degradation direction does not erase the other's signal.
double pseudocostScore(double UpEst, double DownEst, double Frac);

/// One branching decision: a new (tighter) bound on one variable. A node
/// stores the path of these from the root; every entry is a tightening, so
/// applying the path in order onto the root bounds reproduces the node.
struct BoundChange {
  VarId Var;
  bool IsUpper;
  double Bound;
};

} // namespace aqua::lp

#endif // AQUA_LP_BRANCHING_H
