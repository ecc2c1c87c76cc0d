//===- Simplex.cpp - Two-phase primal simplex ------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/Simplex.h"

#include "aqua/lp/Tolerances.h"
#include "aqua/support/Fatal.h"
#include "aqua/obs/Timer.h"

#include <algorithm>
#include <cmath>

using namespace aqua;
using namespace aqua::lp;

const char *aqua::lp::solveStatusName(SolveStatus S) {
  switch (S) {
  case SolveStatus::Optimal:
    return "optimal";
  case SolveStatus::Infeasible:
    return "infeasible";
  case SolveStatus::Unbounded:
    return "unbounded";
  case SolveStatus::IterationLimit:
    return "iteration-limit";
  case SolveStatus::TimeLimit:
    return "time-limit";
  case SolveStatus::TooLarge:
    return "too-large";
  case SolveStatus::NumericFail:
    return "numeric-fail";
  }
  AQUA_UNREACHABLE("bad SolveStatus");
}

namespace {

// Shared LP-layer tolerances (see aqua/lp/Tolerances.h for the policy).
constexpr double CostTol = tol::Cost;
constexpr double PivotTol = tol::Pivot;
constexpr double ZeroTol = tol::Zero;

/// Dense two-phase simplex working state.
///
/// Column layout: [structural y-columns][slack/surplus][artificials].
/// Structural columns correspond to the shifted model variables; a free
/// model variable contributes two structural columns (positive and negative
/// parts). Row `NumRows` of the tableau is the objective row.
class Tableau {
public:
  Tableau(const Model &M, const SolveOptions &Opts);

  /// Runs both phases. Fills and returns the Solution.
  Solution run();

private:
  bool buildFailedTooLarge() const { return TooLarge; }

  double &at(int Row, int Col) { return Data[size_t(Row) * Stride + Col]; }
  double at(int Row, int Col) const {
    return Data[size_t(Row) * Stride + Col];
  }
  double &rhs(int Row) { return at(Row, NumCols); }
  double &obj(int Col) { return at(NumRows, Col); }

  void pivot(int Row, int Col);
  /// Returns the entering column, or -1 at optimality.
  int chooseEntering() const;
  /// Returns the leaving row for entering column \p Col, or -1 if the
  /// column is unbounded below.
  int chooseLeaving(int Col) const;
  /// Runs the pivot loop on the current objective row.
  SolveStatus iterate();
  /// Prices the current basis out of the objective row.
  void priceOutBasis(const std::vector<double> &Costs);
  /// Pivots or deactivates rows whose basic variable is an artificial.
  void expelArtificials();
  void extractValues(Solution &Sol) const;

  const Model &M;
  const SolveOptions &Opts;
  WallTimer Timer;

  int NumRows = 0;
  int NumCols = 0;       // Excluding the rhs column.
  int NumStructCols = 0; // Structural (shifted-variable) columns.
  int FirstArtificial = 0;
  size_t Stride = 0;
  std::vector<double> Data;
  std::vector<int> Basis;         // Basic column per row.
  std::vector<char> RowActive;    // Redundant rows get deactivated.
  std::vector<char> ColBarred;    // Artificials barred in phase 2.
  // Mapping from structural columns back to model variables.
  struct ColOrigin {
    VarId Var;
    double Sign; // +1 for positive part, -1 for negative part.
  };
  std::vector<ColOrigin> Origins;
  std::vector<double> Shift; // Lower-bound shift per model variable.

  std::int64_t Iterations = 0;
  bool UseBland = false;
  int StallCount = 0;
  double LastObjective = 0.0;
  bool TooLarge = false;
  bool OutOfBudget = false;
  SolveStatus BudgetStatus = SolveStatus::Optimal;
};

Tableau::Tableau(const Model &M, const SolveOptions &Opts) : M(M), Opts(Opts) {
  // Shift variables to a zero lower bound; split free variables.
  int N = M.numVars();
  Shift.assign(N, 0.0);
  Origins.clear();
  std::vector<int> FirstColOfVar(N, -1);
  for (VarId V = 0; V < N; ++V) {
    const Variable &Var = M.var(V);
    FirstColOfVar[V] = static_cast<int>(Origins.size());
    if (Var.Lower == -Infinity) {
      // Free (or upper-bounded-only) variable: x = y+ - y-.
      Origins.push_back({V, +1.0});
      Origins.push_back({V, -1.0});
      Shift[V] = 0.0;
    } else {
      Origins.push_back({V, +1.0});
      Shift[V] = Var.Lower;
    }
  }
  NumStructCols = static_cast<int>(Origins.size());

  // Count rows: model rows plus one per finite upper bound.
  int UpperRows = 0;
  for (VarId V = 0; V < N; ++V)
    if (M.var(V).Upper != Infinity)
      ++UpperRows;
  NumRows = M.numRows() + UpperRows;

  // Assemble raw rows (dense) with shifted rhs, then normalize rhs >= 0 and
  // attach slack/surplus/artificial columns.
  struct RawRow {
    std::vector<Term> Terms;
    RowKind Kind;
    double Rhs;
  };
  std::vector<RawRow> Raw;
  Raw.reserve(NumRows);
  for (const Row &R : M.rows()) {
    RawRow RR;
    RR.Kind = R.Kind;
    double Adjust = 0.0;
    for (const Term &T : R.Terms)
      Adjust += T.Coef * Shift[T.Var];
    RR.Rhs = R.Rhs - Adjust;
    RR.Terms = R.Terms;
    Raw.push_back(std::move(RR));
  }
  for (VarId V = 0; V < N; ++V) {
    const Variable &Var = M.var(V);
    if (Var.Upper == Infinity)
      continue;
    RawRow RR;
    RR.Kind = RowKind::LE;
    RR.Rhs = Var.Upper - Shift[V];
    RR.Terms = {Term{V, 1.0}};
    Raw.push_back(std::move(RR));
  }

  // Normalize rhs >= 0.
  for (RawRow &RR : Raw) {
    if (RR.Rhs >= 0.0)
      continue;
    RR.Rhs = -RR.Rhs;
    for (Term &T : RR.Terms)
      T.Coef = -T.Coef;
    if (RR.Kind == RowKind::LE)
      RR.Kind = RowKind::GE;
    else if (RR.Kind == RowKind::GE)
      RR.Kind = RowKind::LE;
  }

  // Column budget: structural + one slack/surplus per row + one artificial
  // per GE/EQ row.
  int SlackCount = 0, ArtCount = 0;
  for (const RawRow &RR : Raw) {
    if (RR.Kind != RowKind::EQ)
      ++SlackCount;
    if (RR.Kind != RowKind::LE)
      ++ArtCount;
  }
  NumCols = NumStructCols + SlackCount + ArtCount;
  FirstArtificial = NumStructCols + SlackCount;
  Stride = static_cast<size_t>(NumCols) + 1;

  size_t Bytes = (static_cast<size_t>(NumRows) + 1) * Stride * sizeof(double);
  if (Bytes > Opts.MaxTableauBytes) {
    TooLarge = true;
    return;
  }
  Data.assign((static_cast<size_t>(NumRows) + 1) * Stride, 0.0);
  Basis.assign(NumRows, -1);
  RowActive.assign(NumRows, 1);
  ColBarred.assign(NumCols, 0);

  int NextSlack = NumStructCols;
  int NextArt = FirstArtificial;
  for (int I = 0; I < NumRows; ++I) {
    const RawRow &RR = Raw[I];
    for (const Term &T : RR.Terms) {
      int C = FirstColOfVar[T.Var];
      at(I, C) += T.Coef;
      if (M.var(T.Var).Lower == -Infinity)
        at(I, C + 1) -= T.Coef; // Negative part of the free split.
    }
    rhs(I) = RR.Rhs;
    switch (RR.Kind) {
    case RowKind::LE:
      at(I, NextSlack) = 1.0;
      Basis[I] = NextSlack++;
      break;
    case RowKind::GE:
      at(I, NextSlack) = -1.0;
      ++NextSlack;
      at(I, NextArt) = 1.0;
      Basis[I] = NextArt++;
      break;
    case RowKind::EQ:
      at(I, NextArt) = 1.0;
      Basis[I] = NextArt++;
      break;
    }
  }
  assert(NextSlack == FirstArtificial && NextArt == NumCols &&
         "column accounting mismatch");
}

void Tableau::pivot(int PivRow, int PivCol) {
  double *PR = &Data[size_t(PivRow) * Stride];
  double Inv = 1.0 / PR[PivCol];
  for (int J = 0; J <= NumCols; ++J)
    PR[J] *= Inv;
  PR[PivCol] = 1.0;
  for (int I = 0; I <= NumRows; ++I) {
    if (I == PivRow)
      continue;
    double *R = &Data[size_t(I) * Stride];
    double Factor = R[PivCol];
    if (Factor == 0.0)
      continue;
    for (int J = 0; J <= NumCols; ++J) {
      R[J] -= Factor * PR[J];
      if (std::fabs(R[J]) < ZeroTol)
        R[J] = 0.0;
    }
    R[PivCol] = 0.0;
  }
  Basis[PivRow] = PivCol;
  ++Iterations;
}

int Tableau::chooseEntering() const {
  const double *ObjRow = &Data[size_t(NumRows) * Stride];
  if (UseBland) {
    for (int J = 0; J < NumCols; ++J)
      if (!ColBarred[J] && ObjRow[J] < -CostTol)
        return J;
    return -1;
  }
  int Best = -1;
  double BestCost = -CostTol;
  for (int J = 0; J < NumCols; ++J) {
    if (ColBarred[J])
      continue;
    if (ObjRow[J] < BestCost) {
      BestCost = ObjRow[J];
      Best = J;
    }
  }
  return Best;
}

int Tableau::chooseLeaving(int Col) const {
  int BestRow = -1;
  double BestRatio = 0.0;
  for (int I = 0; I < NumRows; ++I) {
    if (!RowActive[I])
      continue;
    double A = at(I, Col);
    if (A <= PivotTol)
      continue;
    double Ratio = at(I, NumCols) / A;
    if (BestRow == -1 || Ratio < BestRatio - 1e-12 ||
        (Ratio < BestRatio + 1e-12 && Basis[I] < Basis[BestRow])) {
      BestRow = I;
      BestRatio = Ratio;
    }
  }
  return BestRow;
}

SolveStatus Tableau::iterate() {
  for (;;) {
    if (Opts.MaxIterations > 0 && Iterations >= Opts.MaxIterations)
      return SolveStatus::IterationLimit;
    if (Opts.TimeLimitSec > 0.0 && (Iterations & 63) == 0 &&
        Timer.seconds() > Opts.TimeLimitSec)
      return SolveStatus::TimeLimit;

    int Col = chooseEntering();
    if (Col < 0)
      return SolveStatus::Optimal;
    int Row = chooseLeaving(Col);
    if (Row < 0)
      return SolveStatus::Unbounded;
    pivot(Row, Col);

    // Degeneracy watchdog: if the objective value stops moving, fall back
    // to Bland's rule, which cannot cycle.
    double Obj = at(NumRows, NumCols);
    if (std::fabs(Obj - LastObjective) < 1e-12) {
      if (++StallCount > Opts.StallThreshold)
        UseBland = true;
    } else {
      StallCount = 0;
      LastObjective = Obj;
    }
  }
}

void Tableau::priceOutBasis(const std::vector<double> &Costs) {
  double *ObjRow = &Data[size_t(NumRows) * Stride];
  std::fill(ObjRow, ObjRow + NumCols + 1, 0.0);
  for (size_t J = 0; J < Costs.size(); ++J)
    ObjRow[J] = Costs[J];
  for (int I = 0; I < NumRows; ++I) {
    if (!RowActive[I])
      continue;
    double C = Costs[Basis[I]];
    if (C == 0.0)
      continue;
    const double *R = &Data[size_t(I) * Stride];
    for (int J = 0; J <= NumCols; ++J)
      ObjRow[J] -= C * R[J];
  }
}

void Tableau::expelArtificials() {
  for (int I = 0; I < NumRows; ++I) {
    if (!RowActive[I] || Basis[I] < FirstArtificial)
      continue;
    // The basic artificial sits at value ~0 (phase 1 succeeded). Pivot it
    // out on any usable non-artificial column; otherwise the row is
    // redundant and is deactivated.
    int PivCol = -1;
    for (int J = 0; J < FirstArtificial; ++J) {
      if (std::fabs(at(I, J)) > PivotTol) {
        PivCol = J;
        break;
      }
    }
    if (PivCol >= 0)
      pivot(I, PivCol);
    else
      RowActive[I] = 0;
  }
}

void Tableau::extractValues(Solution &Sol) const {
  std::vector<double> ColValue(NumCols, 0.0);
  for (int I = 0; I < NumRows; ++I)
    if (RowActive[I])
      ColValue[Basis[I]] = at(I, NumCols);
  Sol.Values.assign(M.numVars(), 0.0);
  for (int J = 0; J < NumStructCols; ++J)
    Sol.Values[Origins[J].Var] += Origins[J].Sign * ColValue[J];
  for (VarId V = 0; V < M.numVars(); ++V)
    Sol.Values[V] += Shift[V];
  Sol.Objective = M.objectiveValue(Sol.Values);
}

Solution Tableau::run() {
  Solution Sol;
  if (TooLarge) {
    Sol.Status = SolveStatus::TooLarge;
    return Sol;
  }

  // ----- Phase 1: minimize the sum of artificials.
  bool HaveArtificials = FirstArtificial < NumCols;
  if (HaveArtificials) {
    std::vector<double> Phase1Costs(NumCols, 0.0);
    for (int J = FirstArtificial; J < NumCols; ++J)
      Phase1Costs[J] = 1.0;
    priceOutBasis(Phase1Costs);
    LastObjective = at(NumRows, NumCols);
    SolveStatus S = iterate();
    Sol.Iterations = Iterations;
    Sol.Seconds = Timer.seconds();
    if (S != SolveStatus::Optimal) {
      Sol.Status = S == SolveStatus::Unbounded ? SolveStatus::Infeasible : S;
      return Sol;
    }
    // Objective row rhs holds -sum(artificials).
    double ArtSum = -at(NumRows, NumCols);
    if (ArtSum > tol::Phase1) {
      Sol.Status = SolveStatus::Infeasible;
      Sol.Iterations = Iterations;
      Sol.Seconds = Timer.seconds();
      return Sol;
    }
    expelArtificials();
    for (int J = FirstArtificial; J < NumCols; ++J)
      ColBarred[J] = 1;
  }

  // ----- Phase 2: optimize the user objective (internally minimized).
  double Sign = M.isMaximize() ? -1.0 : 1.0;
  std::vector<double> Costs(NumCols, 0.0);
  for (int J = 0; J < NumStructCols; ++J)
    Costs[J] = Sign * M.var(Origins[J].Var).ObjCoef * Origins[J].Sign;
  priceOutBasis(Costs);
  UseBland = false;
  StallCount = 0;
  LastObjective = at(NumRows, NumCols);
  SolveStatus S = iterate();
  Sol.Iterations = Iterations;
  Sol.Seconds = Timer.seconds();
  Sol.Status = S;
  if (S == SolveStatus::Optimal)
    extractValues(Sol);
  return Sol;
}

} // namespace

Solution aqua::lp::solveSimplex(const Model &M, const SolveOptions &Opts) {
  Tableau T(M, Opts);
  return T.run();
}
